#include "textflag.h"

// The matmul leaves' AVX bodies and the check that picks them (hasAVX in
// rowterms_amd64.go). The bodies are VEX-encoded throughout, so no SSE
// instruction meets a dirty upper YMM half, and each ends in VZEROUPPER
// before it returns to Go code that may use SSE.

// func cpuid1() uint32
TEXT ·cpuid1(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET

// func rowTermsAVX(c, b, av []float32, at []int)
//
// The terms go four at a time while four are left, then one at a time. A
// pass broadcasts its terms' a values into Y0-Y3 and points R11, R12, R13
// and BX at their B rows, then walks the C row: whole vectors of eight
// columns while len(c)-j >= 8, one vector of four if four are left, single
// columns after. Each lane of Y4 is one c[j] taking its products in term
// order — VMULPS and VADDPS round every lane as VMULSS and VADDSS round a
// scalar, and there is no FMA.
TEXT ·rowTermsAVX(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ av_base+48(FP), R8
	MOVQ av_len+56(FP), R9
	MOVQ at_base+72(FP), R10
	MOVQ CX, DX
	ANDQ $-8, DX // columns in whole vectors of eight

quad:
	CMPQ         R9, $4
	JLT          single
	VBROADCASTSS 0(R8), Y0
	VBROADCASTSS 4(R8), Y1
	VBROADCASTSS 8(R8), Y2
	VBROADCASTSS 12(R8), Y3
	MOVQ         0(R10), R11
	LEAQ         (SI)(R11*4), R11
	MOVQ         8(R10), R12
	LEAQ         (SI)(R12*4), R12
	MOVQ         16(R10), R13
	LEAQ         (SI)(R13*4), R13
	MOVQ         24(R10), BX
	LEAQ         (SI)(BX*4), BX
	XORQ         AX, AX
	CMPQ         AX, DX
	JGE          quadhalf

quadvec:
	VMOVUPS (DI)(AX*4), Y4
	VMULPS  (R11)(AX*4), Y0, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R12)(AX*4), Y1, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R13)(AX*4), Y2, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (BX)(AX*4), Y3, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     quadvec

quadhalf:
	LEAQ    4(AX), R14
	CMPQ    R14, CX
	JGT     quadtail
	VMOVUPS (DI)(AX*4), X4
	VMULPS  (R11)(AX*4), X0, X5
	VADDPS  X5, X4, X4
	VMULPS  (R12)(AX*4), X1, X5
	VADDPS  X5, X4, X4
	VMULPS  (R13)(AX*4), X2, X5
	VADDPS  X5, X4, X4
	VMULPS  (BX)(AX*4), X3, X5
	VADDPS  X5, X4, X4
	VMOVUPS X4, (DI)(AX*4)
	MOVQ    R14, AX

quadtail:
	CMPQ   AX, CX
	JGE    quadnext
	VMOVSS (DI)(AX*4), X4
	VMULSS (R11)(AX*4), X0, X5
	VADDSS X5, X4, X4
	VMULSS (R12)(AX*4), X1, X5
	VADDSS X5, X4, X4
	VMULSS (R13)(AX*4), X2, X5
	VADDSS X5, X4, X4
	VMULSS (BX)(AX*4), X3, X5
	VADDSS X5, X4, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX
	JMP    quadtail

quadnext:
	ADDQ $16, R8
	ADDQ $32, R10
	SUBQ $4, R9
	JMP  quad

single:
	TESTQ        R9, R9
	JEQ          done
	VBROADCASTSS (R8), Y0
	MOVQ         (R10), R11
	LEAQ         (SI)(R11*4), R11
	XORQ         AX, AX
	CMPQ         AX, DX
	JGE          singlehalf

singlevec:
	VMOVUPS (DI)(AX*4), Y4
	VMULPS  (R11)(AX*4), Y0, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     singlevec

singlehalf:
	LEAQ    4(AX), R14
	CMPQ    R14, CX
	JGT     singletail
	VMOVUPS (DI)(AX*4), X4
	VMULPS  (R11)(AX*4), X0, X5
	VADDPS  X5, X4, X4
	VMOVUPS X4, (DI)(AX*4)
	MOVQ    R14, AX

singletail:
	CMPQ   AX, CX
	JGE    singlenext
	VMOVSS (DI)(AX*4), X4
	VMULSS (R11)(AX*4), X0, X5
	VADDSS X5, X4, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX
	JMP    singletail

singlenext:
	ADDQ $4, R8
	ADDQ $8, R10
	DECQ R9
	JMP  single

done:
	VZEROUPPER
	RET

// func tileTermsAVX(out *[8][8]float32, a []float32, ao *[8]int, rt int, bp []float32)
//
// Y0-Y7 hold the tile, row q in Yq, from +0. A step of t loads the panel row
// into Y8, and for each row broadcasts its a value from the row's start (R9-R15
// for rows 0-6, R8 for row 7) plus AX (t·rt bytes) into a spare register,
// VMULPS it by the panel row and VADDPS the product into the row. Every lane
// takes its products in t order, one rounding each, and there is no FMA.
// Nothing is skipped: a zero a adds a ±0 product, which leaves every sum as it
// is (a sum that starts at +0 is never −0 under round to nearest) as long as
// the panel is finite.
TEXT ·tileTermsAVX(SB), NOSPLIT, $0-72
	MOVQ   out+0(FP), DI
	MOVQ   a_base+8(FP), SI
	MOVQ   ao+32(FP), R8
	MOVQ   rt+40(FP), DX
	MOVQ   bp_base+48(FP), BX
	MOVQ   bp_len+56(FP), CX
	SHRQ   $3, CX // k: one panel row of eight per term
	SHLQ   $2, DX // rt in bytes
	MOVQ   0(R8), R9
	LEAQ   (SI)(R9*4), R9
	MOVQ   8(R8), R10
	LEAQ   (SI)(R10*4), R10
	MOVQ   16(R8), R11
	LEAQ   (SI)(R11*4), R11
	MOVQ   24(R8), R12
	LEAQ   (SI)(R12*4), R12
	MOVQ   32(R8), R13
	LEAQ   (SI)(R13*4), R13
	MOVQ   40(R8), R14
	LEAQ   (SI)(R14*4), R14
	MOVQ   48(R8), R15
	LEAQ   (SI)(R15*4), R15
	MOVQ   56(R8), R8
	LEAQ   (SI)(R8*4), R8
	XORQ   AX, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  CX, CX
	JEQ    tilestore

tileloop:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (R9)(AX*1), Y9
	VBROADCASTSS (R10)(AX*1), Y10
	VBROADCASTSS (R11)(AX*1), Y11
	VBROADCASTSS (R12)(AX*1), Y12
	VMULPS       Y8, Y9, Y9
	VMULPS       Y8, Y10, Y10
	VMULPS       Y8, Y11, Y11
	VMULPS       Y8, Y12, Y12
	VADDPS       Y9, Y0, Y0
	VADDPS       Y10, Y1, Y1
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS (R13)(AX*1), Y9
	VBROADCASTSS (R14)(AX*1), Y10
	VBROADCASTSS (R15)(AX*1), Y11
	VBROADCASTSS (R8)(AX*1), Y12
	VMULPS       Y8, Y9, Y9
	VMULPS       Y8, Y10, Y10
	VMULPS       Y8, Y11, Y11
	VMULPS       Y8, Y12, Y12
	VADDPS       Y9, Y4, Y4
	VADDPS       Y10, Y5, Y5
	VADDPS       Y11, Y6, Y6
	VADDPS       Y12, Y7, Y7
	ADDQ         $32, BX
	ADDQ         DX, AX
	DECQ         CX
	JNE          tileloop

tilestore:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET
