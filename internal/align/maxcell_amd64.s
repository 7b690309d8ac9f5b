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

// func linearScore16(rev *byte, h *int16, steps int, q, sub *[16]byte, gap int32)
//
// linearFill16's steps without the pointers: linearBlock16's H
// recurrence with no maximum, lane 15's H the only store. Registers as
// linearFill16's.
TEXT ·linearScore16(SB), NOSPLIT, $0-44
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
	VPXOR Y4, Y4, Y4
	VPXOR Y0, Y0, Y0
	VPXOR Y2, Y2, Y2

score16:
	VMOVDQU (DI), X11
	VPOR X9, X11, X11
	VPSHUFB X11, X10, X11
	VPMOVSXBW X11, Y11
	VPADDSW Y2, Y11, Y11 // diag + W
	VPMAXSW Y4, Y11, Y11 // max(0, diag + W)
	VPERM2I128 $0x02, 20(SI), Y0, Y12
	VPALIGNR $14, Y12, Y0, Y1
	VPMAXSW Y1, Y0, Y13
	VPSUBSW Y3, Y13, Y13
	VPMAXSW Y11, Y13, Y0 // H = max(0, diag + W, max(up, left) − g)
	VEXTRACTI128 $1, Y0, X12
	VPEXTRW $7, X12, 4(SI)
	VMOVDQU Y1, Y2
	ADDQ $2, SI
	DECQ DI
	DECQ CX
	JNZ score16

	VZEROUPPER
	RET

// The 32-lane kernels are the same wavefront on AVX-512BW: Z registers
// hold 32 int16 lanes, lane r at column t−r+1 at step t. SI points at
// h[t] of an H row with column c at h[64+c] (maxcell_amd64.go).
//
// UP32 shifts H one lane down into Z1 with lane 0 from the previous
// block's row, column t+1: VALIGNQ moves Z0's 128-bit lanes up one and
// puts the broadcast quadword h[t+62 … t+65] in the bottom one, whose
// word 7 VPALIGNR then carries into lane 0.
#define UP32 \
	VALIGNQ.BCST $6, 124(SI), Z0, Z12; \
	VPALIGNR $14, Z12, Z0, Z1

// SUB32 loads the substitution scores of the step into Z11: the int8
// table lookups at q·4 | r, N lanes 0.
#define SUB32 \
	VMOVDQU (DI), Y11; \
	VPOR Y9, Y11, Y11; \
	VPSHUFB Y11, Y10, Y11; \
	VPMOVSXBW Y11, Z11

// BOTTOM32 writes lane 31's cell, column t−30, to h[t+34]: word 31 of a
// store at h[t+3] under K7 = 1<<31.
#define BOTTOM32 \
	VMOVDQU16 Z0, K7, 6(SI)

// func linearBlock32(rev *byte, h *int16, n int, q *[32]byte, sub *[16]byte, gap int32, best, at *[32]int16)
//
// linearBlock16 on 32 lanes: one 32-row block of the score pass. Step
// t runs 0 ≤ t ≤ n+30.
//
// Registers: Z0 H, Z1 up, Z2 the previous step's up (this step's
// diagonal), Z3 g in every lane, Z4 zero, Z5 each lane's maximum, Z6
// the step it first appeared at, Z7 the step t in every lane, Z8 −1 in
// every lane, Y9 the block's query codes, Y10 the substitution table in
// both 128-bit halves, K7 lane 31. DI walks rev backwards, SI walks h
// forwards two bytes per step.
TEXT ·linearBlock32(SB), NOSPLIT, $0-64
	MOVQ rev+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ q+24(FP), AX
	VMOVDQU (AX), Y9
	MOVQ sub+32(FP), AX
	VBROADCASTI128 (AX), Y10
	MOVL gap+40(FP), AX
	VPBROADCASTW AX, Z3
	MOVL $0x80000000, AX
	KMOVD AX, K7
	VPXORQ Z4, Z4, Z4
	VPXORQ Z0, Z0, Z0
	VPXORQ Z2, Z2, Z2
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPTERNLOGD $0xff, Z8, Z8, Z8
	LEAQ 30(DI)(CX*1), DI // rev[n+30]: lane r reads rev[n+30−t+r] = rc[t−r]
	ADDQ $31, CX          // n+31 steps

block32:
	// H = max(0, diag + W, left − g, up − g): everything but up − g
	// while the shift that gives up is in flight.
	SUB32
	VPADDSW Z2, Z11, Z11 // diag + W
	VPMAXSW Z4, Z11, Z11 // max(0, diag + W)
	VPSUBSW Z3, Z0, Z13  // left − g
	VPMAXSW Z13, Z11, Z11
	UP32
	VPSUBSW Z3, Z1, Z13  // up − g
	VPMAXSW Z13, Z11, Z0
	BOTTOM32

	// Per-lane running maximum, strict >, and the step it appeared at.
	VPCMPGTW Z5, Z0, K1
	VPMAXSW Z0, Z5, Z5
	VMOVDQU16 Z7, K1, Z6
	VPSUBW Z8, Z7, Z7

	VMOVDQA64 Z1, Z2
	ADDQ $2, SI
	DECQ DI
	DECQ CX
	JNZ block32

	MOVQ best+48(FP), AX
	VMOVDQU64 Z5, (AX)
	MOVQ at+56(FP), AX
	VMOVDQU64 Z6, (AX)
	VZEROUPPER
	RET

// FILL32 is one step of linearFill32 up to its stores: linearFill16's
// selection on 32 lanes, the codes built as bytes in Y13 by three
// masked moves in source order (a later source wins exactly when its
// compare holds).
#define FILL32 \
	UP32; \
	SUB32; \
	VPADDSW Z2, Z11, Z11; \
	VPCMPGTW Z4, Z11, K1; \
	VPMAXSW Z4, Z11, Z11; \
	VPSUBSW Z3, Z0, Z14; \
	VPCMPGTW Z11, Z14, K2; \
	VPMAXSW Z14, Z11, Z11; \
	VPSUBSW Z3, Z1, Z14; \
	VPCMPGTW Z11, Z14, K3; \
	VPMAXSW Z14, Z11, Z0; \
	VPBLENDMB Y5, Y8, K1, Y13; \
	VMOVDQU8 Y6, K2, Y13; \
	VMOVDQU8 Y7, K3, Y13; \
	BOTTOM32; \
	VMOVDQA64 Z1, Z2

// NEXT32 advances to the next step and loops to label while CX steps
// remain.
#define NEXT32(label) \
	ADDQ $16, BX; \
	ADDQ $2, SI; \
	DECQ DI; \
	DECQ CX; \
	JNZ label

// func linearFill32(rev *byte, h *int16, q *[32]byte, sub *[16]byte, gap int32, ptr *byte, lo, nLo, nBoth, nHi int)
//
// linearFill16 on 32 lanes, one pair of 16-row blocks of the pointer
// layout per call: lanes 0–15 are the lower block's PEs at its step t,
// lanes 16–31 the upper block's at its step t−16. BX walks the upper
// block's bank, 16 bytes per step, and the lower block's is lo bytes
// further. The call runs nLo steps that store the low half only, nBoth
// that store both, and nHi that store the high half only.
//
// Registers: linearBlock32's Z0–Z4, Y9, Y10 and K7; Y5–Y8 the codes
// 13, 14, 15 and 12 in every byte.
TEXT ·linearFill32(SB), NOSPLIT, $0-80
	MOVQ rev+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ q+16(FP), AX
	VMOVDQU (AX), Y9
	MOVQ sub+24(FP), AX
	VBROADCASTI128 (AX), Y10
	MOVL gap+32(FP), AX
	VPBROADCASTW AX, Z3
	MOVQ ptr+40(FP), BX
	MOVQ lo+48(FP), R8
	MOVL $13, AX
	VPBROADCASTB AX, Y5
	MOVL $14, AX
	VPBROADCASTB AX, Y6
	MOVL $15, AX
	VPBROADCASTB AX, Y7
	MOVL $12, AX
	VPBROADCASTB AX, Y8
	MOVL $0x80000000, AX
	KMOVD AX, K7
	VPXORQ Z4, Z4, Z4
	VPXORQ Z0, Z0, Z0
	VPXORQ Z2, Z2, Z2

	MOVQ nLo+56(FP), CX
	TESTQ CX, CX
	JZ both

low:
	FILL32
	VMOVDQU X13, (BX)(R8*1)
	NEXT32(low)

both:
	MOVQ nBoth+64(FP), CX
	TESTQ CX, CX
	JZ high

lowhigh:
	FILL32
	VMOVDQU X13, (BX)(R8*1)
	VEXTRACTI128 $1, Y13, (BX)
	NEXT32(lowhigh)

high:
	MOVQ nHi+72(FP), CX
	TESTQ CX, CX
	JZ done

highonly:
	FILL32
	VEXTRACTI128 $1, Y13, (BX)
	NEXT32(highonly)

done:
	VZEROUPPER
	RET

// func linearScore32(rev *byte, h *int16, q *[32]byte, sub *[16]byte, gap int32, steps int)
//
// linearFill32's steps without the pointers: FILL32's recurrence with
// no compares and no code bytes, ordered as linearBlock32's step,
// lane 31's H the only store. Registers as linearBlock32's.
TEXT ·linearScore32(SB), NOSPLIT, $0-48
	MOVQ rev+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ q+16(FP), AX
	VMOVDQU (AX), Y9
	MOVQ sub+24(FP), AX
	VBROADCASTI128 (AX), Y10
	MOVL gap+32(FP), AX
	VPBROADCASTW AX, Z3
	MOVQ steps+40(FP), CX
	MOVL $0x80000000, AX
	KMOVD AX, K7
	VPXORQ Z4, Z4, Z4
	VPXORQ Z0, Z0, Z0
	VPXORQ Z2, Z2, Z2

score32:
	SUB32
	VPADDSW Z2, Z11, Z11 // diag + W
	VPMAXSW Z4, Z11, Z11 // max(0, diag + W)
	VPSUBSW Z3, Z0, Z13  // left − g
	VPMAXSW Z13, Z11, Z11
	UP32
	VPSUBSW Z3, Z1, Z13  // up − g
	VPMAXSW Z13, Z11, Z0
	BOTTOM32
	VMOVDQA64 Z1, Z2
	ADDQ $2, SI
	DECQ DI
	DECQ CX
	JNZ score32

	VZEROUPPER
	RET

// The 64-lane fills are linearFill32's and linearScore32's wavefront on
// biased bytes (maxcell_amd64.go): a lane holds H − 128, so H = 0 is
// −128 and signed saturation at −128 is the recurrence's floor, and
// every H up to 254 is exact. A cell of 255 or more saturates at +127,
// which Z15, the running maximum of every lane's H, records; the call
// returns whether it reached +127. SI points at h[t] of a biased byte H
// row with column c at h[128+c], one byte per step, and the lane shift
// is SCREEN64's.
//
// SETUP64B loads a byte fill's arguments at rev+0, h+8, q+16, sub+24
// and gap+32 into DI, SI, Z9, Z10 and Z3, and sets Z4 to −128 in every
// byte, Z0 (H) and Z2 (the diagonal) to H = 0, Z15 to −128 and K7 to
// lane 63.
#define SETUP64B \
	MOVQ rev+0(FP), DI; \
	MOVQ h+8(FP), SI; \
	MOVQ q+16(FP), AX; \
	VMOVDQU64 (AX), Z9; \
	MOVQ sub+24(FP), AX; \
	VBROADCASTI32X4 (AX), Z10; \
	MOVL gap+32(FP), AX; \
	VPBROADCASTB AX, Z3; \
	MOVL $0x80, AX; \
	VPBROADCASTB AX, Z4; \
	VMOVDQA64 Z4, Z0; \
	VMOVDQA64 Z4, Z2; \
	VMOVDQA64 Z4, Z15; \
	MOVQ $0x8000000000000000, AX; \
	KMOVQ AX, K7

// UP64 shifts H one lane down into Z1 with lane 0 from the previous
// block's row, column t+1 (SCREEN64).
#define UP64 \
	VALIGNQ.BCST $6, 122(SI), Z0, Z12; \
	VPALIGNR $15, Z12, Z0, Z1

// SUB64 loads the substitution scores of the step into Z11.
#define SUB64 \
	VMOVDQU64 (DI), Z11; \
	VPORQ Z9, Z11, Z11; \
	VPSHUFB Z11, Z10, Z11

// BOTTOM64 writes lane 63's cell, column t−62, to h[t+66], and takes
// the step's H into the running maximum.
#define BOTTOM64 \
	VMOVDQU8 Z0, K7, 3(SI); \
	VPMAXSB Z0, Z15, Z15

// SATURATED sets AL to whether Z15 holds +127 in any byte.
#define SATURATED \
	MOVL $0x7F, AX; \
	VPBROADCASTB AX, Z14; \
	VPCMPEQB Z14, Z15, K1; \
	KORTESTQ K1, K1; \
	SETNE AL

// FILL64 is FILL32 on 64 biased byte lanes: diag + W saturates at
// −128, so it needs no floor, and its compare against −128 is
// FILL32's against 0. The codes are built in Z13, 16 bytes per
// 16-row block.
#define FILL64 \
	UP64; \
	SUB64; \
	VPADDSB Z2, Z11, Z11; \
	VPCMPGTB Z4, Z11, K1; \
	VPSUBSB Z3, Z0, Z14; \
	VPCMPGTB Z11, Z14, K2; \
	VPMAXSB Z14, Z11, Z11; \
	VPSUBSB Z3, Z1, Z14; \
	VPCMPGTB Z11, Z14, K3; \
	VPMAXSB Z14, Z11, Z0; \
	VPBLENDMB Z5, Z8, K1, Z13; \
	VMOVDQU8 Z6, K2, Z13; \
	VMOVDQU8 Z7, K3, Z13; \
	BOTTOM64; \
	VMOVDQA64 Z1, Z2

// NEXT64 advances to the next step and loops to label while CX steps
// remain. The four banks' bytes 32 steps ahead are fetched first: four
// stores a step to four lines not in L1 otherwise wait on their
// misses (EXPERIMENTS.md "Byte-lane fills").
#define NEXT64(label) \
	PREFETCHT0 512(BX); \
	PREFETCHT0 512(BX)(R8*1); \
	PREFETCHT0 512(BX)(R9*1); \
	PREFETCHT0 512(BX)(R10*1); \
	ADDQ $16, BX; \
	INCQ SI; \
	DECQ DI; \
	DECQ CX; \
	JNZ label

// func linearFill64(rev *byte, h *int8, q *[64]byte, sub *[16]byte, gap int32, ptr *byte, stride, n0, n1, n2, n3 int) bool
//
// One group of four 16-row blocks of the pointer layout: lanes
// 16k…16k+15 are block k's PEs at its step t−16k. BX walks block 3's
// bank, 16 bytes per step; block k's is (3−k)·stride bytes below it.
// The call runs n0 steps that store all four blocks, then n1 that store
// blocks 1–3, n2 blocks 2–3 and n3 block 3 alone.
//
// Registers: SETUP64B's, and Z5–Z8 the codes 13, 14, 15 and 12 in every
// byte; R8, R9 and R10 are −stride, −2·stride and −3·stride.
TEXT ·linearFill64(SB), NOSPLIT, $0-89
	SETUP64B
	MOVQ ptr+40(FP), BX
	MOVQ stride+48(FP), R8
	NEGQ R8
	LEAQ (R8)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	MOVL $13, AX
	VPBROADCASTB AX, Z5
	MOVL $14, AX
	VPBROADCASTB AX, Z6
	MOVL $15, AX
	VPBROADCASTB AX, Z7
	MOVL $12, AX
	VPBROADCASTB AX, Z8

	MOVQ n0+56(FP), CX
	TESTQ CX, CX
	JZ from1

fill0:
	FILL64
	VMOVDQU X13, (BX)(R10*1)
	VEXTRACTI32X4 $1, Z13, (BX)(R9*1)
	VEXTRACTI32X4 $2, Z13, (BX)(R8*1)
	VEXTRACTI32X4 $3, Z13, (BX)
	NEXT64(fill0)

from1:
	MOVQ n1+64(FP), CX
	TESTQ CX, CX
	JZ from2

fill1:
	FILL64
	VEXTRACTI32X4 $1, Z13, (BX)(R9*1)
	VEXTRACTI32X4 $2, Z13, (BX)(R8*1)
	VEXTRACTI32X4 $3, Z13, (BX)
	NEXT64(fill1)

from2:
	MOVQ n2+72(FP), CX
	TESTQ CX, CX
	JZ from3

fill2:
	FILL64
	VEXTRACTI32X4 $2, Z13, (BX)(R8*1)
	VEXTRACTI32X4 $3, Z13, (BX)
	NEXT64(fill2)

from3:
	MOVQ n3+80(FP), CX
	TESTQ CX, CX
	JZ filled

fill3:
	FILL64
	VEXTRACTI32X4 $3, Z13, (BX)
	NEXT64(fill3)

filled:
	SATURATED
	MOVB AL, ret+88(FP)
	VZEROUPPER
	RET

// func linearScore64(rev *byte, h *int8, q *[64]byte, sub *[16]byte, gap int32, steps int) bool
//
// linearFill64's steps without the pointers, ordered as linearScore32's
// step. Registers as SETUP64B's.
TEXT ·linearScore64(SB), NOSPLIT, $0-49
	SETUP64B
	MOVQ steps+40(FP), CX

score64:
	SUB64
	VPADDSB Z2, Z11, Z11 // diag + W
	VPSUBSB Z3, Z0, Z13  // left − g
	VPMAXSB Z13, Z11, Z11
	UP64
	VPSUBSB Z3, Z1, Z13 // up − g
	VPMAXSB Z13, Z11, Z0
	BOTTOM64
	VMOVDQA64 Z1, Z2
	INCQ SI
	DECQ DI
	DECQ CX
	JNZ score64

	SATURATED
	MOVB AL, ret+48(FP)
	VZEROUPPER
	RET

// The screens are linearBlock16's and linearBlock32's wavefront on int8
// lanes, twice as many rows per step: 32 in a Y register on AVX2, 64 in
// a Z register on AVX-512BW. On AVX2 a lane holds H, diag + W saturates
// at 127 (maxcell_amd64.go), and since H ≥ 0 and g ≤ 127 an unsigned
// saturating H − g is max(0, H − g), so the floor at 0 needs no
// instruction of its own. On AVX-512BW a lane holds H − 128, as the
// byte-lane fills' do: signed saturation is the floor, and H is exact
// to 254. SI points at h[t] of a byte H row with column c at h[128+c],
// one byte per step. A block (screenBlock32/64) keeps each lane's
// maximum and no step; rerun from the same row (screenFind32/64), it
// stops at the first step at which one lane holds a given score.

// SETUP32 sets up an AVX2 screen from its arguments, loaded to DI (rev),
// SI (h), CX (n), R10 (q), R11 (sub) and AX (gap): DI at rev[n+30]
// (lane r reads rev[n+30−t+r] = rc[t−r]), CX the step count n+31, Y3 g
// in every byte, Y9 the block's query codes, Y10 the substitution table
// in both 128-bit halves, H and the diagonal zero.
#define SETUP32 \
	VMOVDQU (R10), Y9; \
	VBROADCASTI128 (R11), Y10; \
	VMOVD AX, X3; \
	VPBROADCASTB X3, Y3; \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y2, Y2, Y2; \
	LEAQ 30(DI)(CX*1), DI; \
	ADDQ $31, CX

// SCREEN32 is one step of an AVX2 screen: Y0 H (this step, then the
// previous one), Y1 up, Y2 the previous step's up (this step's
// diagonal). up is H one byte down with lane 0 from the previous
// block's row, column t+1: byte 15 of the 16 at h[t+114]. Lane 31
// writes its column, t−30, to the row the next block reads.
#define SCREEN32 \
	VMOVDQU (DI), Y11; \
	VPOR Y9, Y11, Y11; \
	VPSHUFB Y11, Y10, Y11; \
	VPADDSB Y2, Y11, Y11; \
	VPERM2I128 $0x02, 114(SI), Y0, Y12; \
	VPALIGNR $15, Y12, Y0, Y1; \
	VPMAXSB Y1, Y0, Y13; \
	VPSUBUSB Y3, Y13, Y13; \
	VPMAXSB Y11, Y13, Y0; \
	VEXTRACTI128 $1, Y0, X12; \
	VPEXTRB $15, X12, 98(SI); \
	VMOVDQU Y1, Y2

// func screenBlock32(rev *byte, h *int8, n int, q *[32]byte, sub *[16]byte, gap int32, best *[32]int8)
//
// One 32-row block of the AVX2 screen, steps 0 ≤ t ≤ n+30, each lane's
// maximum in Y5.
TEXT ·screenBlock32(SB), NOSPLIT, $0-56
	MOVQ rev+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ q+24(FP), R10
	MOVQ sub+32(FP), R11
	MOVL gap+40(FP), AX
	SETUP32
	VPXOR Y5, Y5, Y5

screen32:
	SCREEN32
	VPMAXSB Y0, Y5, Y5
	INCQ SI
	DECQ DI
	DECQ CX
	JNZ screen32

	MOVQ best+48(FP), AX
	VMOVDQU Y5, (AX)
	VZEROUPPER
	RET

// func screenFind32(rev *byte, h *int8, n int, q *[32]byte, sub *[16]byte, gap int32, lane int, score int32) int
//
// screenBlock32's block again, returning the first step at which lane
// holds score, or n+31 if none does. R8 is lane, Y6 score in every
// byte, R9 the step.
TEXT ·screenFind32(SB), NOSPLIT, $0-72
	MOVQ rev+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ q+24(FP), R10
	MOVQ sub+32(FP), R11
	MOVL gap+40(FP), AX
	SETUP32
	MOVQ lane+48(FP), R8
	MOVL score+56(FP), AX
	VMOVD AX, X6
	VPBROADCASTB X6, Y6
	XORQ R9, R9

find32:
	SCREEN32
	VPCMPEQB Y6, Y0, Y7
	VPMOVMSKB Y7, AX
	BTQ R8, AX
	JCS found32
	INCQ R9
	INCQ SI
	DECQ DI
	DECQ CX
	JNZ find32

found32:
	MOVQ R9, ret+64(FP)
	VZEROUPPER
	RET

// SETUP64 is SETUP32 for the AVX-512BW screens: DI at rev[n+62] (lane r
// reads rev[n+62−t+r] = rc[t−r]), CX the step count n+63, Z3, Z9 and
// Z10 g, the query codes and the table in every 128-bit lane, K7 lane
// 63, and H and the diagonal −128, H = 0.
#define SETUP64 \
	VMOVDQU64 (R10), Z9; \
	VBROADCASTI32X4 (R11), Z10; \
	VPBROADCASTB AX, Z3; \
	MOVQ $0x8000000000000000, AX; \
	KMOVQ AX, K7; \
	MOVL $0x80, AX; \
	VPBROADCASTB AX, Z0; \
	VMOVDQA64 Z0, Z2; \
	LEAQ 62(DI)(CX*1), DI; \
	ADDQ $63, CX

// SCREEN64 is SCREEN32 on Z registers of H − 128: H = max(diag + W,
// left − g, up − g), floored at 0 by the signed saturation, with
// everything but up − g computed while the shift that gives up is in
// flight. The shift is UP32's by one byte: the broadcast quadword is
// h[t+122 … t+129], whose byte 7, column t+1, VPALIGNR carries into
// lane 0. Lane 63 writes its column, t−62, to h[t+66]: byte 63 of a
// store at h[t+3] under K7.
#define SCREEN64 \
	VMOVDQU64 (DI), Z11; \
	VPORQ Z9, Z11, Z11; \
	VPSHUFB Z11, Z10, Z11; \
	VPADDSB Z2, Z11, Z11; \
	VPSUBSB Z3, Z0, Z13; \
	VPMAXSB Z13, Z11, Z11; \
	VALIGNQ.BCST $6, 122(SI), Z0, Z12; \
	VPALIGNR $15, Z12, Z0, Z1; \
	VPSUBSB Z3, Z1, Z13; \
	VPMAXSB Z13, Z11, Z0; \
	VMOVDQU8 Z0, K7, 3(SI); \
	VMOVDQA64 Z1, Z2

// func screenBlock64(rev *byte, h *int8, n int, q *[64]byte, sub *[16]byte, gap int32, best *[64]int8)
//
// screenBlock32 on AVX-512BW: one 64-row block, steps 0 ≤ t ≤ n+62,
// each lane's maximum in Z5.
TEXT ·screenBlock64(SB), NOSPLIT, $0-56
	MOVQ rev+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ q+24(FP), R10
	MOVQ sub+32(FP), R11
	MOVL gap+40(FP), AX
	SETUP64
	VMOVDQA64 Z0, Z5

screen64:
	SCREEN64
	VPMAXSB Z0, Z5, Z5
	INCQ SI
	DECQ DI
	DECQ CX
	JNZ screen64

	MOVQ best+48(FP), AX
	VMOVDQU64 Z5, (AX)
	VZEROUPPER
	RET

// func screenFind64(rev *byte, h *int8, n int, q *[64]byte, sub *[16]byte, gap int32, lane int, score int32) int
//
// screenFind32 on AVX-512BW: the first step at which lane holds score,
// or n+63.
TEXT ·screenFind64(SB), NOSPLIT, $0-72
	MOVQ rev+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ q+24(FP), R10
	MOVQ sub+32(FP), R11
	MOVL gap+40(FP), AX
	SETUP64
	MOVQ lane+48(FP), R8
	MOVL score+56(FP), AX
	VPBROADCASTB AX, Z6
	XORQ R9, R9

find64:
	SCREEN64
	VPCMPEQB Z6, Z0, K1
	KMOVQ K1, AX
	BTQ R8, AX
	JCS found64
	INCQ R9
	INCQ SI
	DECQ DI
	DECQ CX
	JNZ find64

found64:
	MOVQ R9, ret+64(FP)
	VZEROUPPER
	RET

// func firstTileBatch32(r, q *byte, h *int8, n, m int, sub *[16]byte, gap int32, best *[32]int8)
//
// The first-tile batch (batch.go): 32 first tiles, one per byte lane,
// scored together. Nothing crosses lanes: each lane runs the linear
// local recurrence of its own tile over lane-major rows, r[32i+l]
// column i+1's reference code of lane l, q[32j+l] row j+1's query code
// shifted to q·4 (m rows, rounded up to even with an N row), and
// h[32i+l] H at column i+1 of the row above, zero above row 1. H =
// max(diag + W, max(up, left) − g): the saturating unsigned subtract
// floors the gap terms at 0, and through them H, as SCREEN32 does.
//
// Two rows advance per pass over the columns, as in linearPair: row A
// at column k+1 and row B, one behind, at column k, so B takes its up
// and diagonal from A's registers, h is read and written once per row
// pair, and the two rows' left-to-right chains overlap. A pass is a
// prologue (A at column 1), n−1 steps (BATCHPAIR) and an epilogue (B at
// column n, BATCHLAST).
//
// Registers: Y3 g in every byte, Y4 row B's H (its left), Y5 each
// lane's maximum, Y8 and Y9 rows B's and A's query codes, Y10 the
// substitution table in both 128-bit halves. Over a step, RPREV holds
// column k's reference codes (loaded by the step before as RNEW), DIAGA
// row A's diagonal H(j−1, k) (the step before's UP), HA row A's H at
// column k and DB at column k−1, row B's up and diagonal. The unrolled
// loop swaps the register pairs instead of moving values. R8 is column
// k+1's byte offset into r and h, R12 the end, SI walks q.
#define BATCHPAIR(RNEW, RPREV, UP, DIAGA, HA, DB) \
	VMOVDQU (DI)(R8*1), RNEW; \
	VMOVDQU (BX)(R8*1), UP; \
	VPOR Y9, RNEW, Y11; \
	VPSHUFB Y11, Y10, Y11; \
	VPADDSB DIAGA, Y11, Y11; \
	VPOR Y8, RPREV, Y14; \
	VPSHUFB Y14, Y10, Y14; \
	VPADDSB DB, Y14, Y14; \
	VPMAXSB UP, HA, Y13; \
	VPSUBUSB Y3, Y13, Y13; \
	VPMAXSB Y11, Y13, DB; \
	VPMAXSB HA, Y4, Y15; \
	VPSUBUSB Y3, Y15, Y15; \
	VPMAXSB Y14, Y15, Y4; \
	VMOVDQU Y4, -32(BX)(R8*1); \
	VPMAXSB DB, Y5, Y5; \
	VPMAXSB Y4, Y5, Y5; \
	ADDQ $32, R8

// BATCHLAST is row B's step at column n, over BATCHPAIR's registers.
#define BATCHLAST(RPREV, HA, DB) \
	VPOR Y8, RPREV, Y14; \
	VPSHUFB Y14, Y10, Y14; \
	VPADDSB DB, Y14, Y14; \
	VPMAXSB HA, Y4, Y15; \
	VPSUBUSB Y3, Y15, Y15; \
	VPMAXSB Y14, Y15, Y4; \
	VMOVDQU Y4, -32(BX)(R8*1); \
	VPMAXSB Y4, Y5, Y5

TEXT ·firstTileBatch32(SB), NOSPLIT, $0-64
	MOVQ r+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ h+16(FP), BX
	MOVQ n+24(FP), R12
	SHLQ $5, R12
	MOVQ m+32(FP), DX
	INCQ DX
	SHRQ $1, DX // row pairs
	MOVQ sub+40(FP), AX
	VBROADCASTI128 (AX), Y10
	MOVL gap+48(FP), AX
	VMOVD AX, X3
	VPBROADCASTB X3, Y3
	VPXOR Y5, Y5, Y5

batchrows:
	VMOVDQU (SI), Y9
	VMOVDQU 32(SI), Y8
	// Row A at column 1: left and diagonal are column 0's zeros.
	VMOVDQU (DI), Y7
	VMOVDQU (BX), Y2
	VPOR Y9, Y7, Y11
	VPSHUFB Y11, Y10, Y11
	VPSUBUSB Y3, Y2, Y13
	VPMAXSB Y11, Y13, Y0
	VPMAXSB Y0, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y4, Y4, Y4
	MOVQ $32, R8

batchcols:
	CMPQ R8, R12
	JEQ batchlast0
	BATCHPAIR(Y12, Y7, Y1, Y2, Y0, Y6)
	CMPQ R8, R12
	JEQ batchlast1
	BATCHPAIR(Y7, Y12, Y2, Y1, Y6, Y0)
	JMP batchcols

batchlast0:
	BATCHLAST(Y7, Y0, Y6)
	JMP batchnext

batchlast1:
	BATCHLAST(Y12, Y6, Y0)

batchnext:
	ADDQ $64, SI
	DECQ DX
	JNZ batchrows

	MOVQ best+56(FP), AX
	VMOVDQU Y5, (AX)
	VZEROUPPER
	RET

// func laneCodes32(p *byte, n int, hi, code *[16]byte)
//
// Maps n·32 ASCII bytes at p, in place, to lane bytes (batch.go): a
// base of ACGTacgt to code[lo], its low nibble's entry, and every other
// byte to 0x80. Bit 5 folds lower case away, and a byte is a base
// exactly when its high nibble is hi[lo]: hi holds A, C and G's 4 and
// T's 5 at their low nibbles 1, 3, 7 and 4, and 0xFF, no nibble, at
// the rest.
//
// Registers: Y6 0xDF, Y7 0x0F, Y8 0x80 in every byte, Y9 hi and Y10
// code in both 128-bit halves.
TEXT ·laneCodes32(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ hi+16(FP), AX
	VBROADCASTI128 (AX), Y9
	MOVQ code+24(FP), AX
	VBROADCASTI128 (AX), Y10
	MOVL $0xDF, AX
	VMOVD AX, X6
	VPBROADCASTB X6, Y6
	MOVL $0x0F, AX
	VMOVD AX, X7
	VPBROADCASTB X7, Y7
	MOVL $0x80, AX
	VMOVD AX, X8
	VPBROADCASTB X8, Y8
	TESTQ CX, CX
	JZ codesdone

codes:
	VMOVDQU (DI), Y0
	VPAND Y6, Y0, Y0
	VPAND Y7, Y0, Y1 // low nibble
	VPSRLW $4, Y0, Y2
	VPAND Y7, Y2, Y2 // high nibble
	VPSHUFB Y1, Y9, Y3
	VPCMPEQB Y2, Y3, Y3 // a base
	VPSHUFB Y1, Y10, Y4
	VPBLENDVB Y3, Y4, Y8, Y0
	VMOVDQU Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ codes

codesdone:
	VZEROUPPER
	RET
