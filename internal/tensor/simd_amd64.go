//go:build amd64

package tensor

// The amd64 inner loops: the float32 fast path's axpy and the matmul
// register tile of each precision. SSE and SSE2 (MOVUPS/MULPS/ADDPS,
// MOVUPD/MULPD/ADDPD) are part of the amd64 baseline and need no check.
// Each tile also has an AVX2 body with eight ymm add chains: 64 float32 or
// 32 float64 columns per sweep. hasAVX2, one CPUID+XGETBV check at package
// init, picks them, and the SSE/SSE2 tiles stay the fallback for amd64
// hosts without AVX2. Whichever runs, each vector lane performs exactly the
// scalar kernel's multiply, then its add, on its own output element, in
// the same ascending accumulation order — independent scalar chains
// executed side by side — so results are bit-identical to the portable
// axpy and matmulTile (pinned by TestSIMDKernelsMatchReference) and to
// each other.

// saxpy32 computes y[i] += alpha*x[i] for i < len(y). len(x) must be at
// least len(y).
//
//go:noescape
func saxpy32(alpha float32, x, y []float32)

// matmulTile32SSE is matmulTile[float32] with a tile's 16 partial sums held
// in four SSE registers across a sweep of the non-zero steps, which are
// packed into the frame first, without a branch (see simd_amd64.s).
//
//go:noescape
func matmulTile32SSE(a []float32, aStep int, b []float32, bStride int, o []float32, steps int)

// matmulTile32AVX2 is matmulTile[float32] with four tiles' 64 partial sums
// in eight AVX registers. Only call it when hasAVX2.
//
//go:noescape
func matmulTile32AVX2(a []float32, aStep int, b []float32, bStride int, o []float32, steps int)

// matmulTile64SSE2 is matmulTile[float64] the same way, a tile's 16
// partial sums in eight SSE2 registers.
//
//go:noescape
func matmulTile64SSE2(a []float64, aStep int, b []float64, bStride int, o []float64, steps int)

// matmulTile64AVX2 is matmulTile[float64] with two tiles' 32 partial sums
// in eight AVX registers. Only call it when hasAVX2.
//
//go:noescape
func matmulTile64AVX2(a []float64, aStep int, b []float64, bStride int, o []float64, steps int)

// matmulTile32 and matmulTile64 are the tiles this host runs, chosen once.
var (
	matmulTile32 = matmulTile32SSE
	matmulTile64 = matmulTile64SSE2
)

func init() {
	if hasAVX2 {
		matmulTile32 = matmulTile32AVX2
		matmulTile64 = matmulTile64AVX2
	}
}

// hasAVX2 reports that the CPU has AVX2 and the OS saves the YMM state:
// CPUID(1).ECX has OSXSAVE and AVX, XCR0 enables XMM and YMM state, and
// CPUID(7,0).EBX has AVX2. It is the one feature check of the package, for
// every kernel with an AVX2 body.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
