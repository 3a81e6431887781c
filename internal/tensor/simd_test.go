package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestSIMDKernelsMatchReference pins the active saxpy32, matmulTile32 and
// matmulTile64, and each tile body the host can run (SSE/SSE2 and, on an
// AVX2 host, AVX2 — called directly, not through dispatch), against the
// portable axpy and matmulTile — the functions every other architecture
// runs — bit for bit. Lengths sweep across the 16-wide, 4-wide, and scalar
// tails, and tile counts 1–9 across the AVX2 tiles' wide sweeps (two
// four-tile sweeps of float32, four pair sweeps of float64) and every
// trailing remainder; inputs include ±0 and NaN and Inf multipliers (the
// zero skip must treat NaN as nonzero) and an Inf in b under a zero
// multiplier (which the skip must drop, where 0·Inf would be NaN).
func TestSIMDKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 64, 100} {
		for _, alpha := range []float32{0, -0.37, 2.5, float32(math.NaN())} {
			x := fillSpecials[float32](rng, n)
			got := fillSpecials[float32](rng, n)
			want := append([]float32(nil), got...)
			axpy(alpha, x, want)
			saxpy32(alpha, x, got)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("saxpy32 n=%d alpha=%v: elem %d got %x want %x",
						n, alpha, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
	tileMatchesPortable(t, rng, "matmulTile32", matmulTile32)
	tileMatchesPortable(t, rng, "matmulTile64", matmulTile64)
	for _, k := range tile32Kernels() {
		tileMatchesPortable(t, rng, "matmulTile32/"+k.name, k.tile)
	}
	for _, k := range tile64Kernels() {
		tileMatchesPortable(t, rng, "matmulTile64/"+k.name, k.tile)
	}
}

// tileKernel is one tile body under its short name.
type tileKernel[T float] struct {
	name string
	tile func(a []T, aStep int, b []T, bStride int, o []T, steps int)
}

// fillSpecials draws n normals with a quarter of the slots ±0.
func fillSpecials[T float](rng *rand.Rand, n int) []T {
	v := make([]T, n)
	for i := range v {
		switch rng.Intn(8) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = T(math.Copysign(0, -1))
		default:
			v[i] = T(rng.NormFloat64())
		}
	}
	return v
}

func tileMatchesPortable[T float](t *testing.T, rng *rand.Rand, name string,
	tile func(a []T, aStep int, b []T, bStride int, o []T, steps int)) {
	for _, steps := range []int{0, 1, 2, 7, 63, 64, 65, 129} {
		for _, aStep := range []int{1, 3, 64} {
			for _, bStride := range []int{16, 17, 80} {
				for tiles := 1; tiles <= 9; tiles++ {
					a := fillSpecials[T](rng, steps*aStep)
					b := fillSpecials[T](rng, steps*bStride+16*tiles)
					if steps > 6 {
						a[1*aStep], a[3*aStep], a[5*aStep] = 0, T(math.NaN()), T(math.Inf(1))
						a[6*aStep] = T(math.Copysign(0, -1))
						b[1*bStride+16*tiles-1] = T(math.Inf(-1))
						b[6*bStride] = T(math.Inf(1))
					}
					got := fillSpecials[T](rng, 16*tiles)
					got[0] = T(math.Copysign(0, -1))
					want := append([]T(nil), got...)
					matmulTile(a, aStep, b, bStride, want, steps)
					tile(a, aStep, b, bStride, got, steps)
					for j := range want {
						g, w := float64(got[j]), float64(want[j])
						// Which payload survives NaN + NaN is the operand
						// order the compiler picked, so a NaN matches any NaN.
						if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
							t.Fatalf("%s steps=%d aStep=%d bStride=%d tiles=%d: col %d got %v want %v",
								name, steps, aStep, bStride, tiles, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}
