#include "textflag.h"

// func gemmRows(c, a, b []float64, k, n int)
//
// for each row i of c: c[i,:] = 0; for p, av := range a[i,:] { if av != 0
// { c[i,:] += av * b[p,:] } }, with n ≥ 1 and len(c) a multiple of n.
TEXT ·gemmRows(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), R11
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ k+72(FP), R8
	MOVQ n+80(FP), R9
	LEAQ (DI)(R11*8), R11 // end of c
	XORPS X3, X3          // +0.0

row:
	CMPQ DI, R11
	JGE  done
	XORQ AX, AX

zero:
	MOVSD X3, (DI)(AX*8)
	INCQ  AX
	CMPQ  AX, R9
	JLT   zero
	MOVQ  DX, R13 // b row p
	XORQ  R12, R12 // p

col:
	CMPQ    R12, R8
	JGE     nextrow
	MOVSD   (SI)(R12*8), X0 // av
	UCOMISD X3, X0
	JNE     axpy
	JPS     axpy            // NaN is not zero

nextcol:
	LEAQ (R13)(R9*8), R13
	INCQ R12
	JMP  col

nextrow:
	LEAQ (DI)(R9*8), DI
	LEAQ (SI)(R8*8), SI
	JMP  row

done:
	RET

axpy:
	XORQ AX, AX
	JMP  inner

	// Entered only by jump, so the padding never executes.
	PCALIGN $64

inner:
	MOVSD (R13)(AX*8), X1
	MULSD X0, X1
	ADDSD (DI)(AX*8), X1
	MOVSD X1, (DI)(AX*8)
	INCQ  AX
	CMPQ  AX, R9
	JLT   inner
	JMP   nextcol
