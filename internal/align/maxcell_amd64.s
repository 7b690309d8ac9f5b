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
