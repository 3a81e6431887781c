package tensor

import (
	"fmt"
	"math"

	"mega/internal/compute"
)

// A linear layer's row epilogue, written once for both precisions. After
// the product, each output row gets its bias, then max(·, 0), then the
// residual row, then LayerNorm(γ, β), on the row chunk the matmul just
// wrote, while it is still in cache. MatMulEpilogue32 runs it at float32 in
// the tape-free forward; MatMulEpilogue runs it at float64 as one taped op
// with a hand-written backward, where the training step used to build a
// MatMul, AddRowVec, ReLU or Add, and LayerNorm node, each a pass over the
// matrix forward and another backward. Each step is the per-element
// arithmetic and order of the separate pass it stands for, and every
// product that feeds an add is rounded on its own (T(a*b)), so this file,
// like portable.go, compiles to no fused multiply-add on any GOARCH
// (`make portable-check` reads its arm64 listing).

// rowEpilogue is the epilogue over flat row-major operands; a nil field
// skips its step.
type rowEpilogue[T float] struct {
	bias        []T
	relu        bool
	residual    []T
	gamma, beta []T
}

// rows runs the epilogue on out's rows lo ≤ r < hi, each cols wide. xhat
// and invStd, when non-nil, receive LayerNorm's normalised rows and per-row
// 1/σ: what the float64 backward keeps.
func (ep *rowEpilogue[T]) rows(out []T, cols, lo, hi int, xhat, invStd []T) {
	for r := lo; r < hi; r++ {
		row := out[r*cols : (r+1)*cols]
		if ep.bias != nil {
			for j, b := range ep.bias[:len(row)] {
				row[j] += b
			}
		}
		if ep.relu {
			relu(row)
		}
		if ep.residual != nil {
			for j, v := range ep.residual[r*cols : (r+1)*cols] {
				row[j] = v + row[j]
			}
		}
		if ep.gamma != nil {
			var xh []T
			if xhat != nil {
				xh = xhat[r*cols : (r+1)*cols]
			}
			is := layerNormRow(row, ep.gamma, ep.beta, xh)
			if invStd != nil {
				invStd[r] = is
			}
		}
	}
}

// relu applies max(v, 0) in place, which maps -0 to +0 and keeps NaN, as
// math.Max(0, v) does. It is branch-free: a compare and branch per element
// mispredicts on every other one of random sign.
func relu[T float](v []T) {
	for i, x := range v {
		v[i] = max(x, 0)
	}
}

// layerNormRow normalises row in place to zero mean and unit variance,
// applies γ⊙x̂ + β, writes x̂ to xhat when it is non-nil, and returns 1/σ.
// The statistics accumulate in ascending column order (rows are model-dim
// wide, well within float32's stable summation range); the rsqrt goes
// through float64, one correctly-rounded evaluation per row at either
// precision.
func layerNormRow[T float](row, gamma, beta, xhat []T) T {
	n := T(len(row))
	var mean T
	for _, v := range row {
		mean += v
	}
	mean /= n
	var vari T
	for _, v := range row {
		d := v - mean
		vari += T(d * d)
	}
	vari /= n
	is := T(1 / math.Sqrt(float64(vari)+normEps))
	gamma, beta = gamma[:len(row)], beta[:len(row)]
	if xhat == nil {
		// The f32 forward keeps no x̂; a store per element cost its
		// serve path 2–5 % on a 2-core amd64 VM.
		for j, v := range row {
			row[j] = T(gamma[j]*((v-mean)*is)) + beta[j]
		}
		return is
	}
	xhat = xhat[:len(row)]
	for j, v := range row {
		h := (v - mean) * is
		xhat[j] = h
		row[j] = T(gamma[j]*h) + beta[j]
	}
	return is
}

// step is ReLU's derivative at the output y: 1 where y > 0, else 0 (NaN
// included). The select is on integer bits, which compiles to a
// conditional move; a float compare and branch would mispredict on every
// other element of a ReLU output.
func step(y float64) float64 {
	var one uint64
	if y > 0 {
		one = 0x3ff0000000000000 // 1.0
	}
	return math.Float64frombits(one)
}

// Epilogue is the row work MatMulEpilogue runs after the product, in this
// order; a zero field skips its step. It is Epilogue32 over 1×cols
// parameter tensors and a rows×cols residual.
type Epilogue struct {
	// Bias is added to every row.
	Bias *Tensor
	// ReLU then applies max(·, 0). The backward reads its mask off the
	// output, so ReLU combines with the bias only.
	ReLU bool
	// Residual's row is then added on the left: Residual + row.
	Residual *Tensor
	// Gamma and Beta, when set, then apply LayerNorm with that affine.
	Gamma, Beta *Tensor
}

// MatMulEpilogue returns ep applied to x·w as one autograd op: the product
// through matmulRows, then the row epilogue inside the same row chunk. Its
// forward and every gradient are bit-identical to the chain of separate
// ops it stands for, LayerNorm(Add(Residual, ReLU(AddRowVec(MatMul(x, w),
// Bias))), Gamma, Beta) with the absent steps left out. A nil w is the
// identity: the epilogue then runs on x itself (nn.Norm's LayerNorm).
func MatMulEpilogue(x, w *Tensor, ep Epilogue) *Tensor {
	m, k, n := x.rows, x.cols, x.cols
	if w != nil {
		if w.rows != k {
			panic(fmt.Sprintf("tensor: matmul %dx%d · %dx%d", m, k, w.rows, w.cols))
		}
		n = w.cols
	}
	row := func(t *Tensor) bool { return t == nil || (t.rows == 1 && t.cols == n) }
	if !row(ep.Bias) || !row(ep.Gamma) || !row(ep.Beta) || (ep.Gamma == nil) != (ep.Beta == nil) ||
		(ep.Residual != nil && (ep.Residual.rows != m || ep.Residual.cols != n)) {
		panic(fmt.Sprintf("tensor: epilogue does not fit a %dx%d output", m, n))
	}
	if ep.ReLU && (ep.Residual != nil || ep.Gamma != nil) {
		panic("tensor: epilogue ReLU combines with the bias only")
	}

	// Parents in the DFS order of the chain this op stands for, so that the
	// backward sweep reaches every shared ancestor (h feeds Q/K/V and the
	// residual) in the order the chain did: gradient accumulation is
	// order-sensitive.
	parents := make([]*Tensor, 0, 6)
	for _, p := range []*Tensor{ep.Residual, x, w, ep.Bias, ep.Gamma, ep.Beta} {
		if p != nil {
			parents = append(parents, p)
		}
	}
	var out *Tensor
	grain := rowGrain(n)
	if w != nil {
		out = newResult(m, n, parents...) // the product accumulates into it
		grain = workGrain(k * n)
	} else {
		out = newResultRaw(m, n, parents...)
	}
	re := rowEpilogue[float64]{relu: ep.ReLU}
	if ep.Bias != nil {
		re.bias = ep.Bias.Data
	}
	if ep.Residual != nil {
		re.residual = ep.Residual.Data
	}
	var xhat, invStd []float64
	if ep.Gamma != nil {
		re.gamma, re.beta = ep.Gamma.Data, ep.Beta.Data
		if out.requiresGrad {
			xhat, invStd = out.tape.getRaw(m*n), out.tape.getRaw(m)
		}
	}
	compute.ParallelGrain(m, grain, func(lo, hi int) {
		if w != nil {
			matmulRows(out.Data, x.Data, w.Data, k, 1, k, n, lo, hi, matmulTile64)
		} else {
			copy(out.Data[lo*n:hi*n], x.Data[lo*n:hi*n])
		}
		re.rows(out.Data, n, lo, hi, xhat, invStd)
	})
	if out.requiresGrad {
		out.backFn = func() { epilogueBackward(x, w, out, ep, xhat, invStd) }
	}
	return out
}

// epilogueBackward is MatMulEpilogue's backward, in the order the chain's
// nodes ran theirs: LayerNorm to dz (γ and β summed from out.Grad and x̂),
// or the ReLU mask g·df, then Residual.Grad += dz, then the bias column sum,
// then dx and dW through the matmul. Gradients of distinct tensors do not
// interact, so the row-local steps share one row pass and the three column
// sums one column pass.
func epilogueBackward(x, w, out *Tensor, ep Epilogue, xhat, invStd []float64) {
	if out.Grad == nil {
		return
	}
	m, cols := out.rows, out.cols
	g, dz := out.Grad, out.Grad
	if ep.Gamma != nil || ep.ReLU {
		dz = out.tape.getRaw(m * cols) // the row pass writes all of it
	}
	// grads returns the tensors among ts that take a gradient, with their
	// Grad allocated; the rest come back nil.
	grads := func(ts ...*Tensor) []*Tensor {
		for i, t := range ts {
			if t != nil && t.requiresGrad {
				t.ensureGrad()
			} else {
				ts[i] = nil
			}
		}
		return ts
	}
	res, dx := grads(ep.Residual)[0], (*Tensor)(nil)
	if w == nil {
		dx = grads(x)[0]
	}
	if ep.Gamma != nil || ep.ReLU || res != nil || dx != nil {
		n := float64(cols)
		compute.ParallelGrain(m, rowGrain(cols), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				gr, dr := g[i*cols:(i+1)*cols], dz[i*cols:(i+1)*cols]
				switch {
				case ep.Gamma != nil:
					// dx = invStd/n · (n·dx̂ − Σdx̂ − x̂·Σ(dx̂⊙x̂)), dx̂ = g⊙γ.
					gamma, xh := ep.Gamma.Data[:cols], xhat[i*cols:(i+1)*cols]
					var sumD, sumDX float64
					for j, gv := range gr {
						d := float64(gv * gamma[j])
						sumD += d
						sumDX += float64(d * xh[j])
					}
					scale := invStd[i] / n
					for j, gv := range gr {
						d := gv * gamma[j]
						dr[j] = scale * (float64(n*d) - sumD - float64(xh[j]*sumDX))
					}
				case ep.ReLU:
					for j, y := range out.Data[i*cols : (i+1)*cols] {
						dr[j] = gr[j] * step(y)
					}
				}
				for _, t := range [2]*Tensor{res, dx} {
					if t != nil {
						tg := t.Grad[i*cols : (i+1)*cols]
						for j, v := range dr {
							tg[j] += v
						}
					}
				}
			}
		})
	}
	p := grads(ep.Gamma, ep.Beta, ep.Bias)
	if gamma, beta, bias := p[0], p[1], p[2]; gamma != nil || beta != nil || bias != nil {
		// The sums run over rows: split the columns so each chunk owns
		// disjoint accumulators, rows in serial order.
		compute.ParallelGrain(cols, workGrain(m), func(jlo, jhi int) {
			for i := 0; i < m; i++ {
				r := i*cols + jlo
				gr := g[r : r+jhi-jlo]
				if gamma != nil {
					acc, xh := gamma.Grad[jlo:jhi], xhat[r:r+len(gr)]
					for j, v := range gr {
						acc[j] += float64(v * xh[j])
					}
				}
				if beta != nil {
					acc := beta.Grad[jlo:jhi]
					for j, v := range gr {
						acc[j] += v
					}
				}
				if bias != nil {
					acc := bias.Grad[jlo:jhi]
					for j, v := range dz[r : r+len(gr)] {
						acc[j] += v
					}
				}
			}
		})
	}
	if w != nil {
		matmulBackward(x, w, dz)
	}
}
