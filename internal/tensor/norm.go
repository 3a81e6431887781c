package tensor

import "mega/internal/compute"

// Fused normalisation with a hand-written backward pass. GatedGCN and GAT
// normalise after every attention block with batch norm; the Graph
// Transformer's layer norm is a matmul row epilogue (linear.go).
//
// BatchNorm statistics live per column, so every stage of it splits
// columns: each mean/variance/gradient accumulator is owned by exactly one
// chunk and accumulated in serial order — thread-count invariant. The
// forward is batchNorm (kernels.go), the body BatchNorm32 runs too.

const normEps = 1e-5

// BatchNorm normalises each column of x over the batch (rows) to zero mean
// and unit variance, then applies gamma⊙x̂ + beta. This is training-mode
// batch norm; the models run full-batch statistics every step, which is how
// the reference benchmark configures GatedGCN.
func BatchNorm(x, gamma, beta *Tensor) *Tensor {
	if gamma.rows != 1 || gamma.cols != x.cols || beta.rows != 1 || beta.cols != x.cols {
		panic("tensor: batchnorm affine shape mismatch")
	}
	m := float64(x.rows)
	cols := x.cols
	out := newResultRaw(x.rows, x.cols, x, gamma, beta)
	xhat := out.tape.getRaw(len(x.Data))
	invStd := out.tape.getRaw(x.cols)
	batchNorm(out.Data, x.Data, x.rows, cols, gamma.Data, beta.Data, xhat, invStd)
	colGrain := workGrain(x.rows)
	if out.requiresGrad {
		out.backFn = func() {
			if gamma.requiresGrad || beta.requiresGrad {
				if gamma.requiresGrad {
					gamma.ensureGrad()
				}
				if beta.requiresGrad {
					beta.ensureGrad()
				}
				compute.ParallelGrain(cols, colGrain, func(jlo, jhi int) {
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
				compute.ParallelGrain(cols, colGrain, func(jlo, jhi int) {
					for j := jlo; j < jhi; j++ {
						var sumD, sumDX float64
						for i := 0; i < x.rows; i++ {
							d := out.Grad[i*cols+j] * gamma.Data[j]
							sumD += d
							sumDX += d * xhat[i*cols+j]
						}
						for i := 0; i < x.rows; i++ {
							d := out.Grad[i*cols+j] * gamma.Data[j]
							x.Grad[i*cols+j] += invStd[j] / m *
								(m*d - sumD - xhat[i*cols+j]*sumDX)
						}
					}
				})
			}
		}
	}
	return out
}
