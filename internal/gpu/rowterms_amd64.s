#include "textflag.h"

// func rowTerms(c, b, av []float32, at []int)
//
// The terms go four at a time while four are left, then one at a time. A
// pass broadcasts its terms' a values into X0-X3 and points R11, R12, R13
// and BX at their B rows, then walks the C row: whole vectors of four
// columns while len(c)-j >= 4, single columns after. Each column of X4 is
// one c[j] taking its products in term order — MULPS and ADDPS round every
// lane as MULSS and ADDSS round a scalar, and there is no FMA.
TEXT ·rowTerms(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ av_base+48(FP), R8
	MOVQ av_len+56(FP), R9
	MOVQ at_base+72(FP), R10
	MOVQ CX, DX
	ANDQ $-4, DX // columns in whole vectors

quad:
	CMPQ R9, $4
	JLT  single
	MOVSS  0(R8), X0
	SHUFPS $0, X0, X0
	MOVSS  4(R8), X1
	SHUFPS $0, X1, X1
	MOVSS  8(R8), X2
	SHUFPS $0, X2, X2
	MOVSS  12(R8), X3
	SHUFPS $0, X3, X3
	MOVQ   0(R10), R11
	LEAQ   (SI)(R11*4), R11
	MOVQ   8(R10), R12
	LEAQ   (SI)(R12*4), R12
	MOVQ   16(R10), R13
	LEAQ   (SI)(R13*4), R13
	MOVQ   24(R10), BX
	LEAQ   (SI)(BX*4), BX
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    quadtail

quadvec:
	MOVUPS (DI)(AX*4), X4
	MOVUPS (R11)(AX*4), X5
	MULPS  X0, X5
	ADDPS  X5, X4
	MOVUPS (R12)(AX*4), X5
	MULPS  X1, X5
	ADDPS  X5, X4
	MOVUPS (R13)(AX*4), X5
	MULPS  X2, X5
	ADDPS  X5, X4
	MOVUPS (BX)(AX*4), X5
	MULPS  X3, X5
	ADDPS  X5, X4
	MOVUPS X4, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    quadvec

quadtail:
	CMPQ  AX, CX
	JGE   quadnext
	MOVSS (DI)(AX*4), X4
	MOVSS (R11)(AX*4), X5
	MULSS X0, X5
	ADDSS X5, X4
	MOVSS (R12)(AX*4), X5
	MULSS X1, X5
	ADDSS X5, X4
	MOVSS (R13)(AX*4), X5
	MULSS X2, X5
	ADDSS X5, X4
	MOVSS (BX)(AX*4), X5
	MULSS X3, X5
	ADDSS X5, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX
	JMP   quadtail

quadnext:
	ADDQ $16, R8
	ADDQ $32, R10
	SUBQ $4, R9
	JMP  quad

single:
	TESTQ  R9, R9
	JEQ    done
	MOVSS  (R8), X0
	SHUFPS $0, X0, X0
	MOVQ   (R10), R11
	LEAQ   (SI)(R11*4), R11
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    singletail

singlevec:
	MOVUPS (DI)(AX*4), X4
	MOVUPS (R11)(AX*4), X5
	MULPS  X0, X5
	ADDPS  X5, X4
	MOVUPS X4, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    singlevec

singletail:
	CMPQ  AX, CX
	JGE   singlenext
	MOVSS (DI)(AX*4), X4
	MOVSS (R11)(AX*4), X5
	MULSS X0, X5
	ADDSS X5, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX
	JMP   singletail

singlenext:
	ADDQ $4, R8
	ADDQ $8, R10
	DECQ R9
	JMP  single

done:
	RET

// func tileTerms(out *[4][8]float32, a []float32, ao *[4]int, rt int, bp []float32)
//
// X0-X7 hold the tile, row q in X(2q) (columns 0-3) and X(2q+1) (columns
// 4-7), from +0. A step of t loads the panel row into X8 and X9, and for
// each row broadcasts its a value from R9, R10, R11 or R12 (the row's start)
// plus AX (t·rt bytes) into X10, MULPS it by both halves and ADDPS the
// products into the row. Every lane takes its products in t order, one
// rounding each, and there is no FMA. Nothing is skipped: a zero a adds a
// ±0 product, which leaves every sum as it is (a sum that starts at +0 is
// never −0 under round to nearest) as long as the panel is finite.
TEXT ·tileTerms(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ a_base+8(FP), SI
	MOVQ ao+32(FP), R8
	MOVQ rt+40(FP), DX
	MOVQ bp_base+48(FP), BX
	MOVQ bp_len+56(FP), CX
	SHRQ $3, CX // k: one panel row of eight per term
	SHLQ $2, DX // rt in bytes
	MOVQ 0(R8), R9
	LEAQ (SI)(R9*4), R9
	MOVQ 8(R8), R10
	LEAQ (SI)(R10*4), R10
	MOVQ 16(R8), R11
	LEAQ (SI)(R11*4), R11
	MOVQ 24(R8), R12
	LEAQ (SI)(R12*4), R12
	XORQ AX, AX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	TESTQ CX, CX
	JEQ   tilestore

tileloop:
	MOVUPS 0(BX), X8
	MOVUPS 16(BX), X9
	MOVSS  (R9)(AX*1), X10
	SHUFPS $0, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X0
	ADDPS  X11, X1
	MOVSS  (R10)(AX*1), X10
	SHUFPS $0, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X2
	ADDPS  X11, X3
	MOVSS  (R11)(AX*1), X10
	SHUFPS $0, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X4
	ADDPS  X11, X5
	MOVSS  (R12)(AX*1), X10
	SHUFPS $0, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X6
	ADDPS  X11, X7
	ADDQ   $32, BX
	ADDQ   DX, AX
	DECQ   CX
	JNE    tileloop

tilestore:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	RET
