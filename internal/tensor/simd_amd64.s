//go:build amd64

#include "textflag.h"

// func saxpy32(alpha float32, x, y []float32)
//
// y[i] += alpha*x[i] for i < len(y). 16 elements per main-loop iteration
// (four 4-wide MULPS/ADDPS chains), then a 4-wide loop, then scalars.
// Unaligned loads/stores throughout — arena buffers carry no alignment
// guarantee beyond Go's slice allocation.
TEXT ·saxpy32(SB), NOSPLIT, $0-56
	MOVSS  alpha+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x_base+8(FP), SI
	MOVQ   y_base+32(FP), DI
	MOVQ   y_len+40(FP), CX
	XORQ   AX, AX

	MOVQ CX, BX
	ANDQ $-16, BX
	CMPQ AX, BX
	JGE  tail4

loop16:
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MOVUPS 32(SI)(AX*4), X3
	MOVUPS 48(SI)(AX*4), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI)(AX*4), X5
	MOVUPS 16(DI)(AX*4), X6
	MOVUPS 32(DI)(AX*4), X7
	MOVUPS 48(DI)(AX*4), X8
	ADDPS  X1, X5
	ADDPS  X2, X6
	ADDPS  X3, X7
	ADDPS  X4, X8
	MOVUPS X5, (DI)(AX*4)
	MOVUPS X6, 16(DI)(AX*4)
	MOVUPS X7, 32(DI)(AX*4)
	MOVUPS X8, 48(DI)(AX*4)
	ADDQ   $16, AX
	CMPQ   AX, BX
	JLT    loop16

tail4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  tail1

loop4:
	MOVUPS (SI)(AX*4), X1
	MULPS  X0, X1
	MOVUPS (DI)(AX*4), X5
	ADDPS  X1, X5
	MOVUPS X5, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    loop4

tail1:
	CMPQ AX, CX
	JGE  done

loop1:
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	MOVSS (DI)(AX*4), X5
	ADDSS X1, X5
	MOVSS X5, (DI)(AX*4)
	INCQ  AX
	CMPQ  AX, CX
	JLT   loop1

done:
	RET

// func matmulTile32SSE(a []float32, aStep int, b []float32, bStride int, o []float32, steps int)
//
// For each full 16-column tile t of o (len(o)/16 of them):
// o[16t:16t+16] += Σ_{s<steps} a[s*aStep] * b[s*bStride+16t : +16], skipping
// steps with a[s*aStep] == 0 (NaN is not skipped). The skip is not a branch
// in the sweep: 64 steps at a time, the non-zero multipliers and the byte
// offsets of their b rows are packed into the frame without a branch
// (CMPSS NEQ is true for unordered, so NaN is kept), and every tile then
// sweeps the packed list with its 16 partial sums in X4–X7. A post-ReLU a
// is half zeros in no pattern: a branch per step mispredicts on every
// other one, in every tile's sweep of the same row.
//
// Frame: multipliers at 0(SP), 64 × 4 bytes; offsets at 256(SP), 64 × 8.
TEXT ·matmulTile32SSE(SB), $768-96
	MOVQ  a_base+0(FP), SI
	MOVQ  aStep+24(FP), R8
	MOVQ  b_base+32(FP), R12
	MOVQ  bStride+56(FP), R10
	MOVQ  steps+88(FP), CX
	SHLQ  $2, R8
	SHLQ  $2, R10
	XORPS X9, X9

chunk32:
	MOVQ    o_len+72(FP), R11
	SHRQ    $4, R11
	JZ      done32
	TESTQ   CX, CX
	JLE     done32
	MOVQ    $64, R13
	CMPQ    CX, R13
	CMOVQLT CX, R13
	SUBQ    R13, CX
	XORL    DX, DX
	XORQ    AX, AX

pack32:
	MOVSS (SI), X0
	MOVSS X0, (SP)(DX*4)
	MOVQ  AX, 256(SP)(DX*8)
	CMPSS X9, X0, $4
	MOVL  X0, DI
	SUBL  DI, DX
	ADDQ  R8, SI
	ADDQ  R10, AX
	DECQ  R13
	JNZ   pack32

	MOVQ R12, BX
	ADDQ AX, R12
	MOVQ o_base+64(FP), DI

tile32:
	MOVUPS (DI), X4
	MOVUPS 16(DI), X5
	MOVUPS 32(DI), X6
	MOVUPS 48(DI), X7
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    store32

step32:
	MOVSS  (SP)(AX*4), X0
	MOVQ   256(SP)(AX*8), R9
	SHUFPS $0x00, X0, X0
	MOVUPS (BX)(R9*1), X1
	MULPS  X0, X1
	ADDPS  X1, X4
	MOVUPS 16(BX)(R9*1), X2
	MULPS  X0, X2
	ADDPS  X2, X5
	MOVUPS 32(BX)(R9*1), X3
	MULPS  X0, X3
	ADDPS  X3, X6
	MOVUPS 48(BX)(R9*1), X8
	MULPS  X0, X8
	ADDPS  X8, X7
	INCQ   AX
	CMPQ   AX, DX
	JLT    step32

store32:
	MOVUPS X4, (DI)
	MOVUPS X5, 16(DI)
	MOVUPS X6, 32(DI)
	MOVUPS X7, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, BX
	DECQ   R11
	JNZ    tile32
	JMP    chunk32

done32:
	RET

// func matmulTile32AVX2(a []float32, aStep int, b []float32, bStride int, o []float32, steps int)
//
// matmulTile32SSE's pack, then a sweep over four 16-column tiles at once:
// 64 partial sums in Y4–Y8, Y10, Y11 and Y13, eight lanes each, so 8
// independent add chains hide the add latency that caps SSE's 4. Trailing
// tiles sweep as wide as what remains, two tiles in Y4–Y7 and a lone one in
// Y4–Y5. X9 holds the pack's zero, so Y9 stays out of the sweep. A step is
// VBROADCASTSS, VMULPS from memory, then VADDPS — never a fused
// multiply-add, so each lane is still the portable chain's multiply, round,
// add. Every vector instruction is VEX-encoded and VZEROUPPER runs before
// RET.
//
// Frame: multipliers at 0(SP), 64 × 4 bytes; offsets at 256(SP), 64 × 8.
TEXT ·matmulTile32AVX2(SB), $768-96
	MOVQ   a_base+0(FP), SI
	MOVQ   aStep+24(FP), R8
	MOVQ   b_base+32(FP), R12
	MOVQ   bStride+56(FP), R10
	MOVQ   steps+88(FP), CX
	SHLQ   $2, R8
	SHLQ   $2, R10
	VXORPS X9, X9, X9

chunkf:
	MOVQ    o_len+72(FP), R11
	SHRQ    $4, R11
	JZ      donef
	TESTQ   CX, CX
	JLE     donef
	MOVQ    $64, R13
	CMPQ    CX, R13
	CMOVQLT CX, R13
	SUBQ    R13, CX
	XORL    DX, DX
	XORQ    AX, AX

packf:
	VMOVSS (SI), X0
	VMOVSS X0, (SP)(DX*4)
	MOVQ   AX, 256(SP)(DX*8)
	VCMPSS $4, X9, X0, X0
	VMOVD  X0, DI
	SUBL   DI, DX
	ADDQ   R8, SI
	ADDQ   R10, AX
	DECQ   R13
	JNZ    packf

	MOVQ R12, BX
	ADDQ AX, R12
	MOVQ o_base+64(FP), DI

quadf:
	CMPQ    R11, $4
	JLT     pairf
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	VMOVUPS 128(DI), Y8
	VMOVUPS 160(DI), Y10
	VMOVUPS 192(DI), Y11
	VMOVUPS 224(DI), Y13
	XORQ    AX, AX
	CMPQ    AX, DX
	JGE     storequadf

stepquadf:
	VBROADCASTSS (SP)(AX*4), Y0
	MOVQ         256(SP)(AX*8), R9
	VMULPS       (BX)(R9*1), Y0, Y1
	VADDPS       Y1, Y4, Y4
	VMULPS       32(BX)(R9*1), Y0, Y2
	VADDPS       Y2, Y5, Y5
	VMULPS       64(BX)(R9*1), Y0, Y3
	VADDPS       Y3, Y6, Y6
	VMULPS       96(BX)(R9*1), Y0, Y12
	VADDPS       Y12, Y7, Y7
	VMULPS       128(BX)(R9*1), Y0, Y1
	VADDPS       Y1, Y8, Y8
	VMULPS       160(BX)(R9*1), Y0, Y2
	VADDPS       Y2, Y10, Y10
	VMULPS       192(BX)(R9*1), Y0, Y3
	VADDPS       Y3, Y11, Y11
	VMULPS       224(BX)(R9*1), Y0, Y12
	VADDPS       Y12, Y13, Y13
	INCQ         AX
	CMPQ         AX, DX
	JLT          stepquadf

storequadf:
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	VMOVUPS Y8, 128(DI)
	VMOVUPS Y10, 160(DI)
	VMOVUPS Y11, 192(DI)
	VMOVUPS Y13, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, BX
	SUBQ    $4, R11
	JMP     quadf

pairf:
	CMPQ    R11, $2
	JLT     lonef
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	XORQ    AX, AX
	CMPQ    AX, DX
	JGE     storepairf

steppairf:
	VBROADCASTSS (SP)(AX*4), Y0
	MOVQ         256(SP)(AX*8), R9
	VMULPS       (BX)(R9*1), Y0, Y1
	VADDPS       Y1, Y4, Y4
	VMULPS       32(BX)(R9*1), Y0, Y2
	VADDPS       Y2, Y5, Y5
	VMULPS       64(BX)(R9*1), Y0, Y3
	VADDPS       Y3, Y6, Y6
	VMULPS       96(BX)(R9*1), Y0, Y12
	VADDPS       Y12, Y7, Y7
	INCQ         AX
	CMPQ         AX, DX
	JLT          steppairf

storepairf:
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $2, R11

lonef:
	TESTQ   R11, R11
	JZ      chunkf
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	XORQ    AX, AX
	CMPQ    AX, DX
	JGE     storelonef

steplonef:
	VBROADCASTSS (SP)(AX*4), Y0
	MOVQ         256(SP)(AX*8), R9
	VMULPS       (BX)(R9*1), Y0, Y1
	VADDPS       Y1, Y4, Y4
	VMULPS       32(BX)(R9*1), Y0, Y2
	VADDPS       Y2, Y5, Y5
	INCQ         AX
	CMPQ         AX, DX
	JLT          steplonef

storelonef:
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	JMP     chunkf

donef:
	VZEROUPPER
	RET

// func matmulTile64SSE2(a []float64, aStep int, b []float64, bStride int, o []float64, steps int)
//
// The float64 tile: the same pack and sweep with the 16 partial sums of a
// tile in X4–X11, two lanes each (MOVUPD/MULPD/ADDPD).
//
// Frame: multipliers at 0(SP), 64 × 8 bytes; offsets at 512(SP), 64 × 8.
TEXT ·matmulTile64SSE2(SB), $1024-96
	MOVQ  a_base+0(FP), SI
	MOVQ  aStep+24(FP), R8
	MOVQ  b_base+32(FP), R12
	MOVQ  bStride+56(FP), R10
	MOVQ  steps+88(FP), CX
	SHLQ  $3, R8
	SHLQ  $3, R10
	XORPD X13, X13

chunk64:
	MOVQ    o_len+72(FP), R11
	SHRQ    $4, R11
	JZ      done64
	TESTQ   CX, CX
	JLE     done64
	MOVQ    $64, R13
	CMPQ    CX, R13
	CMOVQLT CX, R13
	SUBQ    R13, CX
	XORL    DX, DX
	XORQ    AX, AX

pack64:
	MOVSD (SI), X0
	MOVSD X0, (SP)(DX*8)
	MOVQ  AX, 512(SP)(DX*8)
	CMPSD X13, X0, $4
	MOVL  X0, DI
	SUBL  DI, DX
	ADDQ  R8, SI
	ADDQ  R10, AX
	DECQ  R13
	JNZ   pack64

	MOVQ R12, BX
	ADDQ AX, R12
	MOVQ o_base+64(FP), DI

tile64:
	MOVUPD (DI), X4
	MOVUPD 16(DI), X5
	MOVUPD 32(DI), X6
	MOVUPD 48(DI), X7
	MOVUPD 64(DI), X8
	MOVUPD 80(DI), X9
	MOVUPD 96(DI), X10
	MOVUPD 112(DI), X11
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    store64

step64:
	MOVSD    (SP)(AX*8), X0
	MOVQ     512(SP)(AX*8), R9
	UNPCKLPD X0, X0
	MOVUPD   (BX)(R9*1), X1
	MULPD    X0, X1
	ADDPD    X1, X4
	MOVUPD   16(BX)(R9*1), X2
	MULPD    X0, X2
	ADDPD    X2, X5
	MOVUPD   32(BX)(R9*1), X3
	MULPD    X0, X3
	ADDPD    X3, X6
	MOVUPD   48(BX)(R9*1), X12
	MULPD    X0, X12
	ADDPD    X12, X7
	MOVUPD   64(BX)(R9*1), X1
	MULPD    X0, X1
	ADDPD    X1, X8
	MOVUPD   80(BX)(R9*1), X2
	MULPD    X0, X2
	ADDPD    X2, X9
	MOVUPD   96(BX)(R9*1), X3
	MULPD    X0, X3
	ADDPD    X3, X10
	MOVUPD   112(BX)(R9*1), X12
	MULPD    X0, X12
	ADDPD    X12, X11
	INCQ     AX
	CMPQ     AX, DX
	JLT      step64

store64:
	MOVUPD X4, (DI)
	MOVUPD X5, 16(DI)
	MOVUPD X6, 32(DI)
	MOVUPD X7, 48(DI)
	MOVUPD X8, 64(DI)
	MOVUPD X9, 80(DI)
	MOVUPD X10, 96(DI)
	MOVUPD X11, 112(DI)
	ADDQ   $128, DI
	ADDQ   $128, BX
	DECQ   R11
	JNZ    tile64
	JMP    chunk64

done64:
	RET

// func matmulTile64AVX2(a []float64, aStep int, b []float64, bStride int, o []float64, steps int)
//
// matmulTile64SSE2's pack, then a sweep over two 16-column tiles at once:
// 32 partial sums in Y4–Y11, four lanes each, so 8 independent add chains
// hide the add latency the way SSE2's 8 xmm chains do; a lone trailing
// tile sweeps with Y4–Y7. A step is VBROADCASTSD, VMULPD from memory, then
// VADDPD — never a fused multiply-add, so each lane is still the portable
// chain's multiply, round, add. Every vector instruction is VEX-encoded
// (no SSE/AVX transition inside) and VZEROUPPER runs before RET.
//
// Frame: multipliers at 0(SP), 64 × 8 bytes; offsets at 512(SP), 64 × 8.
TEXT ·matmulTile64AVX2(SB), $1024-96
	MOVQ   a_base+0(FP), SI
	MOVQ   aStep+24(FP), R8
	MOVQ   b_base+32(FP), R12
	MOVQ   bStride+56(FP), R10
	MOVQ   steps+88(FP), CX
	SHLQ   $3, R8
	SHLQ   $3, R10
	VXORPD X13, X13, X13

chunkv:
	MOVQ    o_len+72(FP), R11
	SHRQ    $4, R11
	JZ      donev
	TESTQ   CX, CX
	JLE     donev
	MOVQ    $64, R13
	CMPQ    CX, R13
	CMOVQLT CX, R13
	SUBQ    R13, CX
	XORL    DX, DX
	XORQ    AX, AX

packv:
	VMOVSD (SI), X0
	VMOVSD X0, (SP)(DX*8)
	MOVQ   AX, 512(SP)(DX*8)
	VCMPSD $4, X13, X0, X0
	VMOVD  X0, DI
	SUBL   DI, DX
	ADDQ   R8, SI
	ADDQ   R10, AX
	DECQ   R13
	JNZ    packv

	MOVQ R12, BX
	ADDQ AX, R12
	MOVQ o_base+64(FP), DI

pairv:
	CMPQ    R11, $2
	JLT     lonev
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7
	VMOVUPD 128(DI), Y8
	VMOVUPD 160(DI), Y9
	VMOVUPD 192(DI), Y10
	VMOVUPD 224(DI), Y11
	XORQ    AX, AX
	CMPQ    AX, DX
	JGE     storepairv

steppairv:
	VBROADCASTSD (SP)(AX*8), Y0
	MOVQ         512(SP)(AX*8), R9
	VMULPD       (BX)(R9*1), Y0, Y1
	VADDPD       Y1, Y4, Y4
	VMULPD       32(BX)(R9*1), Y0, Y2
	VADDPD       Y2, Y5, Y5
	VMULPD       64(BX)(R9*1), Y0, Y3
	VADDPD       Y3, Y6, Y6
	VMULPD       96(BX)(R9*1), Y0, Y12
	VADDPD       Y12, Y7, Y7
	VMULPD       128(BX)(R9*1), Y0, Y1
	VADDPD       Y1, Y8, Y8
	VMULPD       160(BX)(R9*1), Y0, Y2
	VADDPD       Y2, Y9, Y9
	VMULPD       192(BX)(R9*1), Y0, Y3
	VADDPD       Y3, Y10, Y10
	VMULPD       224(BX)(R9*1), Y0, Y12
	VADDPD       Y12, Y11, Y11
	INCQ         AX
	CMPQ         AX, DX
	JLT          steppairv

storepairv:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VMOVUPD Y8, 128(DI)
	VMOVUPD Y9, 160(DI)
	VMOVUPD Y10, 192(DI)
	VMOVUPD Y11, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, BX
	SUBQ    $2, R11
	JMP     pairv

lonev:
	TESTQ   R11, R11
	JZ      chunkv
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7
	XORQ    AX, AX
	CMPQ    AX, DX
	JGE     storelonev

steplonev:
	VBROADCASTSD (SP)(AX*8), Y0
	MOVQ         512(SP)(AX*8), R9
	VMULPD       (BX)(R9*1), Y0, Y1
	VADDPD       Y1, Y4, Y4
	VMULPD       32(BX)(R9*1), Y0, Y2
	VADDPD       Y2, Y5, Y5
	VMULPD       64(BX)(R9*1), Y0, Y3
	VADDPD       Y3, Y6, Y6
	VMULPD       96(BX)(R9*1), Y0, Y12
	VADDPD       Y12, Y7, Y7
	INCQ         AX
	CMPQ         AX, DX
	JLT          steplonev

storelonev:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	JMP     chunkv

donev:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
