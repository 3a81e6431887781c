package tensor

import (
	"fmt"
	"math"

	"mega/internal/compute"
)

// Add returns a + b (same shape).
func Add(a, b *Tensor) *Tensor {
	assertSameShape("add", a, b)
	out := newResultRaw(a.rows, a.cols, a, b)
	compute.ParallelGrain(len(out.Data), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
	})
	if out.requiresGrad {
		out.backFn = func() {
			if a.requiresGrad {
				a.ensureGrad()
				compute.ParallelGrain(len(out.Grad), elemGrain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						a.Grad[i] += out.Grad[i]
					}
				})
			}
			if b.requiresGrad {
				b.ensureGrad()
				compute.ParallelGrain(len(out.Grad), elemGrain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						b.Grad[i] += out.Grad[i]
					}
				})
			}
		}
	}
	return out
}

// Sub returns a - b (same shape).
func Sub(a, b *Tensor) *Tensor {
	assertSameShape("sub", a, b)
	out := newResultRaw(a.rows, a.cols, a, b)
	compute.ParallelGrain(len(out.Data), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] - b.Data[i]
		}
	})
	if out.requiresGrad {
		out.backFn = func() {
			if a.requiresGrad {
				a.ensureGrad()
				compute.ParallelGrain(len(out.Grad), elemGrain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						a.Grad[i] += out.Grad[i]
					}
				})
			}
			if b.requiresGrad {
				b.ensureGrad()
				compute.ParallelGrain(len(out.Grad), elemGrain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						b.Grad[i] -= out.Grad[i]
					}
				})
			}
		}
	}
	return out
}

// Mul returns the elementwise product a ⊙ b (same shape).
func Mul(a, b *Tensor) *Tensor {
	assertSameShape("mul", a, b)
	out := newResultRaw(a.rows, a.cols, a, b)
	compute.ParallelGrain(len(out.Data), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] * b.Data[i]
		}
	})
	if out.requiresGrad {
		out.backFn = func() {
			if a.requiresGrad {
				a.ensureGrad()
				compute.ParallelGrain(len(out.Grad), elemGrain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						a.Grad[i] += out.Grad[i] * b.Data[i]
					}
				})
			}
			if b.requiresGrad {
				b.ensureGrad()
				compute.ParallelGrain(len(out.Grad), elemGrain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						b.Grad[i] += out.Grad[i] * a.Data[i]
					}
				})
			}
		}
	}
	return out
}

// MulColVec returns a ⊙ c broadcast over columns, for c of shape rows×1
// (per-row scaling, e.g. attention coefficients).
func MulColVec(a, c *Tensor) *Tensor {
	if c.cols != 1 || c.rows != a.rows {
		panic(fmt.Sprintf("tensor: mulcolvec %dx%d ⊙ %dx%d", a.rows, a.cols, c.rows, c.cols))
	}
	out := newResultRaw(a.rows, a.cols, a, c)
	cols := a.cols
	compute.ParallelGrain(a.rows, rowGrain(cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cv := c.Data[i]
			for j := 0; j < cols; j++ {
				out.Data[i*cols+j] = a.Data[i*cols+j] * cv
			}
		}
	})
	if out.requiresGrad {
		out.backFn = func() {
			if a.requiresGrad {
				a.ensureGrad()
				compute.ParallelGrain(a.rows, rowGrain(cols), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						cv := c.Data[i]
						for j := 0; j < cols; j++ {
							a.Grad[i*cols+j] += out.Grad[i*cols+j] * cv
						}
					}
				})
			}
			if c.requiresGrad {
				c.ensureGrad()
				compute.ParallelGrain(a.rows, rowGrain(cols), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						s := 0.0
						for j := 0; j < cols; j++ {
							s += out.Grad[i*cols+j] * a.Data[i*cols+j]
						}
						c.Grad[i] += s
					}
				})
			}
		}
	}
	return out
}

// Scale returns s·a for a constant s.
func Scale(a *Tensor, s float64) *Tensor {
	out := newResultRaw(a.rows, a.cols, a)
	compute.ParallelGrain(len(out.Data), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] * s
		}
	})
	if out.requiresGrad {
		out.backFn = func() {
			a.ensureGrad()
			compute.ParallelGrain(len(out.Grad), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					a.Grad[i] += out.Grad[i] * s
				}
			})
		}
	}
	return out
}

// unary builds an elementwise op with derivative df(x, f(x)).
func unary(a *Tensor, f func(float64) float64, df func(x, y float64) float64) *Tensor {
	out := newResultRaw(a.rows, a.cols, a)
	compute.ParallelGrain(len(out.Data), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = f(a.Data[i])
		}
	})
	if out.requiresGrad {
		out.backFn = func() {
			a.ensureGrad()
			compute.ParallelGrain(len(out.Grad), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					a.Grad[i] += out.Grad[i] * df(a.Data[i], out.Data[i])
				}
			})
		}
	}
	return out
}

// Sigmoid returns 1/(1+e^-a) elementwise.
func Sigmoid(a *Tensor) *Tensor {
	return unary(a,
		func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		func(_, y float64) float64 { return y * (1 - y) })
}

// ReLU returns max(0, a) elementwise.
func ReLU(a *Tensor) *Tensor {
	return unary(a,
		func(x float64) float64 { return math.Max(0, x) },
		func(x, _ float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// Sum returns the 1×1 sum of all elements. The reduction uses the fixed
// partition of compute.ReduceSum, so its value is independent of the
// thread count.
func Sum(a *Tensor) *Tensor {
	out := newResultRaw(1, 1, a)
	out.Data[0] = compute.ReduceSum(len(a.Data), func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += a.Data[i]
		}
		return s
	})
	if out.requiresGrad {
		out.backFn = func() {
			a.ensureGrad()
			g := out.Grad[0]
			compute.ParallelGrain(len(a.Grad), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					a.Grad[i] += g
				}
			})
		}
	}
	return out
}

// Mean returns the 1×1 mean of all elements.
func Mean(a *Tensor) *Tensor {
	return Scale(Sum(a), 1/float64(len(a.Data)))
}

// ConcatCols concatenates tensors with equal row counts along columns
// (multi-head concatenation).
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: concat of nothing")
	}
	rows := ts[0].rows
	total := 0
	for _, t := range ts {
		if t.rows != rows {
			panic(fmt.Sprintf("tensor: concat row mismatch %d vs %d", t.rows, rows))
		}
		total += t.cols
	}
	out := newResultRaw(rows, total, ts...)
	off := 0
	for _, t := range ts {
		t := t
		toff := off
		compute.ParallelGrain(rows, rowGrain(t.cols), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				copy(out.Data[i*total+toff:i*total+toff+t.cols], t.Data[i*t.cols:(i+1)*t.cols])
			}
		})
		off += t.cols
	}
	if out.requiresGrad {
		out.backFn = func() {
			off := 0
			for _, t := range ts {
				if t.requiresGrad {
					t.ensureGrad()
					t := t
					toff := off
					compute.ParallelGrain(rows, rowGrain(t.cols), func(lo, hi int) {
						for i := lo; i < hi; i++ {
							for j := 0; j < t.cols; j++ {
								t.Grad[i*t.cols+j] += out.Grad[i*total+toff+j]
							}
						}
					})
				}
				off += t.cols
			}
		}
	}
	return out
}
