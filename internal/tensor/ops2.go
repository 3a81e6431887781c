package tensor

import (
	"fmt"
	"math"

	"mega/internal/compute"
)

// Additional ops used by the attention formulations.

// AddScalar returns a + c elementwise for a constant c.
func AddScalar(a *Tensor, c float64) *Tensor {
	return unary(a,
		func(x float64) float64 { return x + c },
		func(_, _ float64) float64 { return 1 })
}

// Reciprocal returns 1/a elementwise.
func Reciprocal(a *Tensor) *Tensor {
	return unary(a,
		func(x float64) float64 { return 1 / x },
		func(_, y float64) float64 { return -y * y })
}

// Exp returns e^a elementwise.
func Exp(a *Tensor) *Tensor {
	return unary(a, math.Exp, func(_, y float64) float64 { return y })
}

// Div returns a / b elementwise (same shape).
func Div(a, b *Tensor) *Tensor {
	assertSameShape("div", a, b)
	return Mul(a, Reciprocal(b))
}

// RowSum returns the per-row sum as an m×1 tensor. Row-parallel: each
// row's sum stays a single serial accumulation.
func RowSum(a *Tensor) *Tensor {
	out := newResultRaw(a.rows, 1, a)
	cols := a.cols
	compute.ParallelGrain(a.rows, rowGrain(cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for j := 0; j < cols; j++ {
				s += a.Data[i*cols+j]
			}
			out.Data[i] = s
		}
	})
	if out.requiresGrad {
		out.backFn = func() {
			a.ensureGrad()
			compute.ParallelGrain(a.rows, rowGrain(cols), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					g := out.Grad[i]
					for j := 0; j < cols; j++ {
						a.Grad[i*cols+j] += g
					}
				}
			})
		}
	}
	return out
}

// RowDot returns the per-row dot product of a and b as an m×1 tensor:
// out[i] = Σ_j a[i,j]·b[i,j]. This is the q·k score of scaled dot-product
// attention.
func RowDot(a, b *Tensor) *Tensor {
	assertSameShape("rowdot", a, b)
	return RowSum(Mul(a, b))
}

// NarrowCols returns columns [start, start+n) of x; gradients add back.
func NarrowCols(x *Tensor, start, n int) *Tensor {
	if start < 0 || n < 0 || start+n > x.cols {
		panic(fmt.Sprintf("tensor: narrowcols [%d,%d) of %d cols", start, start+n, x.cols))
	}
	out := newResultRaw(x.rows, n, x)
	compute.ParallelGrain(x.rows, rowGrain(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out.Data[i*n:(i+1)*n], x.Data[i*x.cols+start:i*x.cols+start+n])
		}
	})
	if out.requiresGrad {
		out.backFn = func() {
			x.ensureGrad()
			compute.ParallelGrain(x.rows, rowGrain(n), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					for j := 0; j < n; j++ {
						x.Grad[i*x.cols+start+j] += out.Grad[i*n+j]
					}
				}
			})
		}
	}
	return out
}
