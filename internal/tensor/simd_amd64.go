//go:build amd64

package tensor

// SSE inner loops: the float32 fast path's axpy and the matmul register
// tile of each precision. SSE and SSE2 (MOVUPS/MULPS/ADDPS, MOVUPD/MULPD/
// ADDPD) are part of the amd64 baseline, so there is no feature detection
// and no dispatch cost. Each vector lane performs exactly the scalar
// kernel's multiply, then its add, on its own output element, in the same
// ascending accumulation order — independent scalar chains executed side
// by side — so results are bit-identical to the portable axpy and
// matmulTile (pinned by TestSIMDKernelsMatchReference).

// saxpy32 computes y[i] += alpha*x[i] for i < len(y). len(x) must be at
// least len(y).
//
//go:noescape
func saxpy32(alpha float32, x, y []float32)

// matmulTile32 is matmulTile[float32] with a tile's 16 partial sums held
// in four SSE registers across a sweep of the non-zero steps, which are
// packed into the frame first, without a branch (see simd_amd64.s).
//
//go:noescape
func matmulTile32(a []float32, aStep int, b []float32, bStride int, o []float32, steps int)

// matmulTile64 is matmulTile[float64] the same way, a tile's 16 partial
// sums in eight SSE2 registers.
//
//go:noescape
func matmulTile64(a []float64, aStep int, b []float64, bStride int, o []float64, steps int)
