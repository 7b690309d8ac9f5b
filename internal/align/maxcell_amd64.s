//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func linearBlock16(rev *byte, h *int16, n int, q, sub *[16]byte, gap int32, best, at *[16]int16)
//
// One 16-row block of the score pass; see maxcell_amd64.go for the
// layout. Step t (0 ≤ t ≤ n+14) puts lane r at column t−r+1.
//
// Registers: Y0 H (this step, then the previous one), Y1 up, Y2 the
// previous step's up (this step's diagonal), Y3 g in every lane, Y4
// zero, Y5 each lane's maximum, Y6 the step it first appeared at, Y7
// the step t in every lane, Y8 −1 in every lane, X9 the block's query
// codes, X10 the substitution table. DI walks rev backwards, SI walks h
// forwards two bytes per step.
TEXT ·linearBlock16(SB), NOSPLIT, $0-64
	MOVQ rev+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ q+24(FP), AX
	VMOVDQU (AX), X9
	MOVQ sub+32(FP), AX
	VMOVDQU (AX), X10
	MOVL gap+40(FP), AX
	VMOVD AX, X3
	VPBROADCASTW X3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y0, Y0, Y0
	VPXOR Y2, Y2, Y2
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPCMPEQW Y8, Y8, Y8
	LEAQ 14(DI)(CX*1), DI // rev[n+14]: lane r reads rev[n+14−t+r] = rc[t−r]
	ADDQ $15, CX          // n+15 steps

loop:
	// Substitution scores: int8 table lookups at q·4 | r, N lanes 0.
	VMOVDQU (DI), X11
	VPOR X9, X11, X11
	VPSHUFB X11, X10, X11
	VPMOVSXBW X11, Y11
	VPADDSW Y2, Y11, Y11 // diag + W
	VPMAXSW Y4, Y11, Y11 // max(0, diag + W)

	// up: H one lane down, lane 0 from the previous block's row, h[t+17]
	// (the seventh int16 of the low half of the 32 bytes at 20(SI)).
	VPERM2I128 $0x02, 20(SI), Y0, Y12
	VPALIGNR $14, Y12, Y0, Y1
	VPMAXSW Y1, Y0, Y13
	VPSUBSW Y3, Y13, Y13
	VPMAXSW Y11, Y13, Y0 // H = max(0, diag + W, max(up, left) − g)

	// Lane 15 writes its column, t−14, to the row the next block reads.
	VEXTRACTI128 $1, Y0, X12
	VPEXTRW $7, X12, 4(SI)

	// Per-lane running maximum, strict >, and the step it appeared at.
	VPCMPGTW Y5, Y0, Y13
	VPMAXSW Y0, Y5, Y5
	VPBLENDVB Y13, Y7, Y6, Y6
	VPSUBW Y8, Y7, Y7

	VMOVDQU Y1, Y2
	ADDQ $2, SI
	DECQ DI
	DECQ CX
	JNZ loop

	MOVQ best+48(FP), AX
	VMOVDQU Y5, (AX)
	MOVQ at+56(FP), AX
	VMOVDQU Y6, (AX)
	VZEROUPPER
	RET

// func linearFill16(rev *byte, h *int16, steps int, q, sub *[16]byte, gap int32, ptr *byte)
//
// linearBlock16's wavefront without the maximum, emitting pointers:
// each lane applies linearRow's selection — strict > in the order
// diagonal, left − g, up − g, over a running best from 0 — and the
// step's 16 codes (open bits | source, 12…15) are packed to bytes and
// stored at BX. The code is max(12, 13 if diagonal, 14 if left, 15 if
// up): a later source wins exactly when its code is higher.
//
// Registers: Y0 H (this step, then the previous one, i.e. left), Y1 up,
// Y2 the previous step's up (this step's diagonal), Y3 g in every lane,
// Y4 zero, Y5–Y8 the codes 13, 14, 15 and 12, X9 the block's query
// codes, X10 the substitution table. DI walks rev backwards, SI walks h
// forwards two bytes per step, BX walks the pointers 16 bytes per step.
TEXT ·linearFill16(SB), NOSPLIT, $0-56
	MOVQ rev+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ steps+16(FP), CX
	MOVQ q+24(FP), AX
	VMOVDQU (AX), X9
	MOVQ sub+32(FP), AX
	VMOVDQU (AX), X10
	MOVL gap+40(FP), AX
	VMOVD AX, X3
	VPBROADCASTW X3, Y3
	MOVQ ptr+48(FP), BX
	MOVL $13, AX
	VMOVD AX, X5
	VPBROADCASTW X5, Y5
	MOVL $14, AX
	VMOVD AX, X6
	VPBROADCASTW X6, Y6
	MOVL $15, AX
	VMOVD AX, X7
	VPBROADCASTW X7, Y7
	MOVL $12, AX
	VMOVD AX, X8
	VPBROADCASTW X8, Y8
	VPXOR Y4, Y4, Y4
	VPXOR Y0, Y0, Y0
	VPXOR Y2, Y2, Y2

fill:
	// up: H one lane down, lane 0 from the previous block's row, h[t+17].
	VPERM2I128 $0x02, 20(SI), Y0, Y12
	VPALIGNR $14, Y12, Y0, Y1

	// Substitution scores: int8 table lookups at q·4 | r, N lanes 0.
	VMOVDQU (DI), X11
	VPOR X9, X11, X11
	VPSHUFB X11, X10, X11
	VPMOVSXBW X11, Y11
	VPADDSW Y2, Y11, Y11  // diag + W
	VPCMPGTW Y4, Y11, Y13 // diag + W > 0: diagonal
	VPMAXSW Y4, Y11, Y11
	VPSUBSW Y3, Y0, Y14   // left − g
	VPCMPGTW Y11, Y14, Y15 // left − g > best: horizontal
	VPMAXSW Y14, Y11, Y11
	VPSUBSW Y3, Y1, Y14   // up − g
	VPCMPGTW Y11, Y14, Y12 // up − g > best: vertical
	VPMAXSW Y14, Y11, Y0  // H

	// Pointer codes, packed to 16 bytes in lane order.
	VPAND Y5, Y13, Y13
	VPAND Y6, Y15, Y15
	VPAND Y7, Y12, Y12
	VPMAXSW Y13, Y15, Y15
	VPMAXSW Y8, Y12, Y12
	VPMAXSW Y15, Y12, Y12
	VEXTRACTI128 $1, Y12, X13
	VPACKUSWB X13, X12, X12
	VMOVDQU X12, (BX)

	// Lane 15 writes its column, t−14, to the row the next block reads.
	VEXTRACTI128 $1, Y0, X12
	VPEXTRW $7, X12, 4(SI)

	VMOVDQU Y1, Y2
	ADDQ $16, BX
	ADDQ $2, SI
	DECQ DI
	DECQ CX
	JNZ fill

	VZEROUPPER
	RET
