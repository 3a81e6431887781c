package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mega/internal/compute"
)

// The float64 ops MatMulEpilogue replaced in the models, kept as the
// oracles it is pinned against bit for bit.

// AddRowVec returns a + v broadcast over rows, for v of shape 1×cols
// (bias addition): the separate pass MatMulEpilogue's bias step was
// written against.
func AddRowVec(a, v *Tensor) *Tensor {
	if v.rows != 1 || v.cols != a.cols {
		panic(fmt.Sprintf("tensor: addrowvec %dx%d + %dx%d", a.rows, a.cols, v.rows, v.cols))
	}
	out := newResult(a.rows, a.cols, a, v)
	cols := a.cols
	compute.ParallelGrain(a.rows, rowGrain(cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*cols : (i+1)*cols]
			orow := out.Data[i*cols : (i+1)*cols]
			for j := range orow {
				orow[j] = arow[j] + v.Data[j]
			}
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
			if v.requiresGrad {
				v.ensureGrad()
				// v.Grad[j] sums over every row: split the columns so each
				// chunk owns disjoint accumulators, rows in serial order.
				compute.ParallelGrain(cols, workGrain(a.rows), func(jlo, jhi int) {
					for i := 0; i < a.rows; i++ {
						for j := jlo; j < jhi; j++ {
							v.Grad[j] += out.Grad[i*cols+j]
						}
					}
				})
			}
		}
	}
	return out
}

// LayerNorm normalises each row of x to zero mean and unit variance, then
// applies the affine transform gamma⊙x̂ + beta (gamma, beta of shape
// 1×cols). It is the separate row pass, with its own backward, that
// MatMulEpilogue's LayerNorm step was written against.
func LayerNorm(x, gamma, beta *Tensor) *Tensor {
	if gamma.rows != 1 || gamma.cols != x.cols || beta.rows != 1 || beta.cols != x.cols {
		panic("tensor: layernorm affine shape mismatch")
	}
	n := float64(x.cols)
	cols := x.cols
	out := newResult(x.rows, x.cols, x, gamma, beta)
	xhat := out.tape.get(len(x.Data))
	invStd := out.tape.get(x.rows)
	compute.ParallelGrain(x.rows, rowGrain(cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := x.Data[i*cols : (i+1)*cols]
			mean := 0.0
			for _, v := range row {
				mean += v
			}
			mean /= n
			vari := 0.0
			for _, v := range row {
				d := v - mean
				vari += d * d
			}
			vari /= n
			is := 1 / math.Sqrt(vari+normEps)
			invStd[i] = is
			for j, v := range row {
				h := (v - mean) * is
				xhat[i*cols+j] = h
				out.Data[i*cols+j] = gamma.Data[j]*h + beta.Data[j]
			}
		}
	})
	if out.requiresGrad {
		out.backFn = func() {
			if gamma.requiresGrad || beta.requiresGrad {
				if gamma.requiresGrad {
					gamma.ensureGrad()
				}
				if beta.requiresGrad {
					beta.ensureGrad()
				}
				// gamma/beta gradients sum over rows: column split so each
				// chunk owns disjoint accumulators.
				compute.ParallelGrain(cols, workGrain(x.rows), func(jlo, jhi int) {
					for i := 0; i < x.rows; i++ {
						for j := jlo; j < jhi; j++ {
							g := out.Grad[i*cols+j]
							if gamma.requiresGrad {
								gamma.Grad[j] += g * xhat[i*cols+j]
							}
							if beta.requiresGrad {
								beta.Grad[j] += g
							}
						}
					}
				})
			}
			if x.requiresGrad {
				x.ensureGrad()
				compute.ParallelGrain(x.rows, rowGrain(cols), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						// dxhat = dOut ⊙ gamma; standard layernorm backward:
						// dx = invStd/n * (n·dxhat − Σdxhat − x̂·Σ(dxhat⊙x̂))
						var sumD, sumDX float64
						for j := 0; j < cols; j++ {
							d := out.Grad[i*cols+j] * gamma.Data[j]
							sumD += d
							sumDX += d * xhat[i*cols+j]
						}
						for j := 0; j < cols; j++ {
							d := out.Grad[i*cols+j] * gamma.Data[j]
							x.Grad[i*cols+j] += invStd[i] / n *
								(n*d - sumD - xhat[i*cols+j]*sumDX)
						}
					}
				})
			}
		}
	}
	return out
}

// epilogueCase is one combination of MatMulEpilogue's steps that a model
// runs, with the chain of separate ops it stands for.
type epilogueCase struct {
	name             string
	product          bool // false: the identity (nn.Norm's LayerNorm)
	bias, res, gamma bool
	relu             bool
}

var epilogueCases = []epilogueCase{
	{name: "bias", product: true, bias: true},
	{name: "bias+relu", product: true, bias: true, relu: true},
	{name: "bias+residual+norm", product: true, bias: true, res: true, gamma: true},
	{name: "norm", gamma: true},
}

// build returns the case's inputs x, w, bias, residual, γ, β (nil where the
// case has none) as fresh leaves that take a gradient, then x's table: x
// itself is the table gathered onto tp, the way a model's graph enters a
// tape.
func (c epilogueCase) build(tp *Tape, tmpl []*Tensor) []*Tensor {
	ins := make([]*Tensor, len(tmpl))
	for i, in := range tmpl {
		if in != nil {
			ins[i] = in.Clone().RequireGrad()
		}
	}
	table := ins[0]
	ins[0] = tp.EmbedRows(table, identityIDs(table.rows))
	return append(ins, table)
}

// identityIDs returns 0, 1, …, n-1.
func identityIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

func (c epilogueCase) fused(ins []*Tensor) *Tensor {
	ep := Epilogue{Bias: ins[2], ReLU: c.relu, Residual: ins[3], Gamma: ins[4], Beta: ins[5]}
	return MatMulEpilogue(ins[0], ins[1], ep)
}

func (c epilogueCase) unfused(ins []*Tensor) *Tensor {
	y := ins[0]
	if c.product {
		y = MatMul(y, ins[1])
	}
	if c.bias {
		y = AddRowVec(y, ins[2])
	}
	if c.relu {
		y = ReLU(y)
	}
	if c.res {
		y = Add(ins[3], y)
	}
	if c.gamma {
		y = LayerNorm(y, ins[4], ins[5])
	}
	return y
}

// sameBitsOrNaN reports whether a and b are equal bit for bit, any NaN
// matching any NaN.
func sameBitsOrNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestLinearEpilogueMatchesUnfused runs every step combination the models
// use against the separate ops it replaced — MatMul, AddRowVec, ReLU, Add,
// LayerNorm — and requires the output and the gradient of every input (x,
// W, the bias, the residual, γ, β) to match bit for bit, at one thread and
// at two. x, the bias and the residual carry ±0, NaN and Inf; the shapes
// cross a k-block and the cols mod 16 tail. The fused side runs on a tape
// whose previous contents were poisoned, so a buffer it hands out uncleared
// and leaves partly unwritten shows up as NaN.
func TestLinearEpilogueMatchesUnfused(t *testing.T) {
	tapePoison = true
	defer func() { tapePoison = false }()
	rng := rand.New(rand.NewSource(32))
	const rows, k = 37, 70
	for _, cols := range []int{64, 133} {
		for _, c := range epilogueCases {
			in := k
			if !c.product {
				in = cols
			}
			x := New(rows, in, fillSpecials[float64](rng, rows*in))
			x.Data[3*in+5], x.Data[9*in+1], x.Data[20*in+in-4] = math.NaN(), math.Inf(1), math.Inf(-1)
			tmpl := make([]*Tensor, 6)
			tmpl[0] = x
			if c.product {
				tmpl[1] = New(k, cols, fillSpecials[float64](rng, k*cols))
			}
			if c.bias {
				tmpl[2] = New(1, cols, fillSpecials[float64](rng, cols))
				tmpl[2].Data[1], tmpl[2].Data[2] = math.Inf(1), math.NaN()
			}
			if c.res {
				tmpl[3] = New(rows, cols, fillSpecials[float64](rng, rows*cols))
				tmpl[3].Data[5*cols+3], tmpl[3].Data[11*cols] = math.Inf(-1), math.NaN()
			}
			if c.gamma {
				tmpl[4] = New(1, cols, fillSpecials[float64](rng, cols))
				tmpl[5] = New(1, cols, fillSpecials[float64](rng, cols))
			}
			weights := fillSpecials[float64](rng, rows*cols)
			for _, threads := range []int{1, 2} {
				name := fmt.Sprintf("cols=%d %s threads=%d", cols, c.name, threads)
				prev := compute.SetMaxThreads(threads)
				tp := NewTape()
				tp.get(4 * rows * (k + 4*cols))
				tp.Release() // every later hand-out starts as NaN
				run := func(tp *Tape, op func([]*Tensor) *Tensor) (*Tensor, []*Tensor) {
					ins := c.build(tp, tmpl)
					y := op(ins)
					Sum(Mul(y, New(rows, cols, weights))).Backward()
					return y, ins
				}
				want, wantIns := run(nil, c.unfused)
				got, gotIns := run(tp, c.fused)
				compute.SetMaxThreads(prev)
				for i := range want.Data {
					if !sameBitsOrNaN(got.Data[i], want.Data[i]) {
						t.Fatalf("%s: output %d got %v want %v", name, i, got.Data[i], want.Data[i])
					}
				}
				// Input 0 is x's gather; x's gradient lands on the table.
				for p := 1; p < len(gotIns); p++ {
					if wantIns[p] == nil {
						continue
					}
					g, w := gotIns[p].Grad, wantIns[p].Grad
					if len(g) != len(w) {
						t.Fatalf("%s: input %d gradient length %d want %d", name, p, len(g), len(w))
					}
					for i := range w {
						if !sameBitsOrNaN(g[i], w[i]) {
							t.Fatalf("%s: input %d grad %d got %v want %v", name, p, i, g[i], w[i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkLinear64 prices one linear layer's forward and backward at the
// training step's shapes (700 rows, 64 in): the fused op against the chain
// of separate ops, for the two epilogues GT's streams run, on a tape
// released every iteration as the training step releases it.
func BenchmarkLinear64(b *testing.B) {
	prev := compute.SetMaxThreads(1)
	defer compute.SetMaxThreads(prev)
	const rows, k = 700, 64
	for _, bc := range []struct {
		cols int
		c    epilogueCase
	}{{64, epilogueCases[2]}, {128, epilogueCases[1]}} {
		tmpl := []*Tensor{randT(1, rows, k), randT(2, k, bc.cols), randT(3, 1, bc.cols), nil, nil, nil}
		if bc.c.res {
			tmpl[3], tmpl[4], tmpl[5] = randT(4, rows, bc.cols), randT(5, 1, bc.cols), randT(6, 1, bc.cols)
		}
		for _, mode := range []string{"fused", "unfused"} {
			op := bc.c.fused
			if mode == "unfused" {
				op = bc.c.unfused
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s/%s", rows, k, bc.cols, bc.c.name, mode), func(b *testing.B) {
				tp := NewTape()
				ins := bc.c.build(nil, tmpl)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ins[0] = tp.EmbedRows(ins[6], identityIDs(rows))
					Sum(op(ins)).Backward()
					tp.Release()
				}
			})
		}
	}
}
