package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mega/internal/compute"
)

// The three float64 matmul loop nests the one driver replaced, kept as
// oracles: TestMatMulMatchesNaive holds forward, dA and dB to them bit for
// bit, so the driver's tiling, k-blocking and scratch change no result.

func naiveMatMulForward[T float](dst, a, b []T, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				dst[i*n+j] += T(av * b[p*n+j])
			}
		}
	}
}

func naiveMatMulGradA(da, dout, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += dout[i*n+j] * b[p*n+j]
			}
			da[i*k+p] += s
		}
	}
}

func naiveMatMulGradB(db, a, dout []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				db[p*n+j] += av * dout[i*n+j]
			}
		}
	}
}

// halfZero draws a post-ReLU operand: normals with the negatives zeroed.
func halfZero(rng *rand.Rand, rows, cols int) *Tensor {
	t := Randn(rng, rows, cols, 1)
	for i, v := range t.Data {
		t.Data[i] = math.Max(v, 0)
	}
	return t
}

func firstDiff[T float](got, want []T) int {
	for i := range want {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			return i
		}
	}
	return -1
}

// TestMatMulMatchesNaive pins MatMul's forward, dA and dB, and MatMul32,
// to the naive loops with Float64bits equality, on shapes straddling the
// 16-column tile and the k-block, at several thread counts. a is post-ReLU
// and feeds two matmuls, the upstream gradients are half zero, and every
// gradient buffer holds a non-zero seed before the backward, so the order
// in which products are added to what is already there is part of what
// is pinned.
func TestMatMulMatchesNaive(t *testing.T) {
	dims := []int{1, 15, 16, 17, 33, 64, 65, 130}
	rng := rand.New(rand.NewSource(90))
	arena := NewArena()
	for _, m := range []int{1, 17, 700} {
		for _, k := range dims {
			for _, n := range dims {
				a := halfZero(rng, m, k)
				b := [2]*Tensor{Randn(rng, k, n, 1), Randn(rng, k, n, 1)}
				g := [2]*Tensor{halfZero(rng, m, n), halfZero(rng, m, n)}
				seedA := Randn(rng, m, k, 1).Data
				seedB := [2][]float64{Randn(rng, k, n, 1).Data, Randn(rng, k, n, 1).Data}

				var wantOut, wantDB [2][]float64
				wantDA := append([]float64(nil), seedA...)
				// The backward runs out1's matmul first, then out0's.
				for _, x := range []int{1, 0} {
					wantOut[x] = make([]float64, m*n)
					naiveMatMulForward(wantOut[x], a.Data, b[x].Data, m, k, n)
					naiveMatMulGradA(wantDA, g[x].Data, b[x].Data, m, k, n)
					wantDB[x] = append([]float64(nil), seedB[x]...)
					naiveMatMulGradB(wantDB[x], a.Data, g[x].Data, m, k, n)
				}
				a32, b32 := Downcast(a), Downcast(b[0])
				want32 := make([]float32, m*n)
				naiveMatMulForward(want32, a32.Data, b32.Data, m, k, n)

				for _, threads := range []int{1, 2, 4} {
					name := fmt.Sprintf("%dx%dx%d threads=%d", m, k, n, threads)
					prev := compute.SetMaxThreads(threads)
					av := a.Clone().RequireGrad()
					av.Grad = append([]float64(nil), seedA...)
					var bv, out [2]*Tensor
					for x := range b {
						bv[x] = b[x].Clone().RequireGrad()
						bv[x].Grad = append([]float64(nil), seedB[x]...)
						out[x] = MatMul(av, bv[x])
						out[x].Grad = append([]float64(nil), g[x].Data...)
					}
					out[1].backFn()
					out[0].backFn()
					got32 := MatMul32(a32, b32, arena)
					compute.SetMaxThreads(prev)

					for x := range b {
						if i := firstDiff(out[x].Data, wantOut[x]); i >= 0 {
							t.Fatalf("%s: forward %d elem %d = %v, naive %v", name, x, i, out[x].Data[i], wantOut[x][i])
						}
						if i := firstDiff(bv[x].Grad, wantDB[x]); i >= 0 {
							t.Fatalf("%s: dB %d elem %d = %v, naive %v", name, x, i, bv[x].Grad[i], wantDB[x][i])
						}
					}
					if i := firstDiff(av.Grad, wantDA); i >= 0 {
						t.Fatalf("%s: dA elem %d = %v, naive %v", name, i, av.Grad[i], wantDA[i])
					}
					if i := firstDiff(got32.Data, want32); i >= 0 {
						t.Fatalf("%s: MatMul32 elem %d = %v, naive %v", name, i, got32.Data[i], want32[i])
					}
					arena.PutF32(got32)
				}
			}
		}
	}
}
