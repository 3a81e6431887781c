package tensor

import (
	"fmt"
	"math"

	"mega/internal/compute"
)

// Forward-only float32 kernels for the inference fast path, and the
// forward bodies they share with the float64 ops. The float32 entry points
// build no tape: outputs are plain F32 values whose payloads come from the
// arena's float32 buckets. Gather, segment mean and batch norm are one
// generic body each, which GatherRows, SegmentMean and BatchNorm run at
// float64 and their *32 entry points at float32. Like every kernel in this
// package they are bit-identical at any thread count; across precisions
// the contract is the bounded divergence envelope measured by
// MeasureDivergence, not bit-identity. A linear layer's bias, ReLU,
// residual add and LayerNorm are not passes of their own: they run as the
// matmul's row epilogue (Epilogue32), on each row chunk while it is still
// in cache, through the one generic body in linear.go that the float64
// training op runs too. Every product feeding an add here is rounded on
// its own (T(a*b)), so this file, like portable.go, compiles to no fused
// multiply-add on any GOARCH (`make portable-check` reads its arm64
// listing).

// Epilogue32 is the row work MatMulEpilogue32 runs on each output row
// after the product, in this order; a zero field skips its step. Each step
// is the exact per-element arithmetic and order of the separate row pass
// it stands for.
type Epilogue32 struct {
	// Bias is added to every row: row[j] += Bias[j].
	Bias []float32
	// ReLU then applies max(row[j], 0), which maps -0 to +0.
	ReLU bool
	// Residual's row is then added: row[j] = Residual[r][j] + row[j].
	Residual *F32
	// Gamma and Beta, when set, then normalise the row to zero mean and
	// unit variance and apply Gamma⊙x̂ + Beta (layerNormRow: statistics in
	// float32, the rsqrt through float64).
	Gamma, Beta []float32
}

// MatMul32 computes a·b through matmulRows, the loop nest the float64
// matmul runs, with matmulTile32 (AVX2 or SSE, chosen at init) as its
// micro-kernel. Per output element the accumulation is the same
// ascending-p mul-then-add chain, so results are bit-identical at any
// thread count, on either tile and on any architecture; only the
// throughput differs.
func MatMul32(a, b *F32, arena *Arena) *F32 {
	return MatMulEpilogue32(a, b, Epilogue32{}, arena)
}

// MatMulEpilogue32 is MatMul32 followed by ep on every output row, inside
// the same row chunk: the row epilogue MatMulEpilogue runs at float64
// (linear.go), at float32. out must not alias ep.Residual.
func MatMulEpilogue32(a, b *F32, ep Epilogue32, arena *Arena) *F32 {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: matmul32 %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	cols := b.cols
	if (ep.Bias != nil && len(ep.Bias) != cols) ||
		(ep.Residual != nil && (ep.Residual.rows != a.rows || ep.Residual.cols != cols)) ||
		len(ep.Gamma) != len(ep.Beta) || (ep.Gamma != nil && len(ep.Gamma) != cols) {
		panic(fmt.Sprintf("tensor: matmul32 epilogue does not fit a %dx%d output", a.rows, cols))
	}
	re := rowEpilogue[float32]{bias: ep.Bias, relu: ep.ReLU, gamma: ep.Gamma, beta: ep.Beta}
	if ep.Residual != nil {
		re.residual = ep.Residual.Data
	}
	out := arena.GetF32(a.rows, cols)
	compute.ParallelGrain(a.rows, workGrain(a.cols*cols), func(lo, hi int) {
		matmulRows(out.Data, a.Data, b.Data, a.cols, 1, a.cols, cols, lo, hi, matmulTile32)
		re.rows(out.Data, cols, lo, hi, nil, nil)
	})
	return out
}

// Add32 returns a + b elementwise. It and ReLU32 are the passes for work
// no row epilogue can take: GAT's residual and ReLU sit either side of a
// column-wise BatchNorm.
func Add32(a, b *F32, arena *Arena) *F32 {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("tensor: add32 %dx%d + %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := arena.GetF32(a.rows, a.cols)
	compute.ParallelGrain(len(a.Data), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
	})
	return out
}

// ReLU32 applies max(x, 0) in place, as Epilogue32.ReLU does.
func ReLU32(x *F32) {
	compute.ParallelGrain(len(x.Data), elemGrain, func(lo, hi int) {
		relu(x.Data[lo:hi])
	})
}

// BatchNorm32 normalises each column of x over the batch and applies
// gamma⊙x̂ + beta: BatchNorm's forward at float32.
func BatchNorm32(x *F32, gamma, beta []float32, arena *Arena) *F32 {
	if len(gamma) != x.cols || len(beta) != x.cols {
		panic(fmt.Sprintf("tensor: batchnorm32 affine %d/%d for %d cols", len(gamma), len(beta), x.cols))
	}
	out := arena.GetF32(x.rows, x.cols)
	batchNorm(out.Data, x.Data, x.rows, x.cols, gamma, beta, nil, nil)
	return out
}

// GatherRows32 returns the rows of x selected by idx: GatherRows's
// forward at float32.
func GatherRows32(x *F32, idx []int32, arena *Arena) *F32 {
	out := arena.GetF32(len(idx), x.cols)
	gatherRowsInto(out.Data, x.Data, x.rows, x.cols, idx)
	return out
}

// SegmentMean32 returns a numSeg×cols matrix whose row s is the mean of
// the rows of x with seg[i] == s: SegmentMean's forward at float32.
func SegmentMean32(x *F32, seg []int32, numSeg int, arena *Arena) *F32 {
	out := arena.GetF32(numSeg, x.cols)
	segmentMeanInto(out.Data, x.Data, x.rows, x.cols, seg, make([]float32, numSeg))
	return out
}

// The generic forward bodies live here, not beside their float64 backwards
// in index.go and norm.go, so that `make portable-check` holds them to
// separate multiplies and adds.

// gatherRowsInto writes x's rows idx[i] (x is rows×cols) to out's row i.
// Gathers split rows: each output row is owned by one chunk.
func gatherRowsInto[T float](out, x []T, rows, cols int, idx []int32) {
	for _, id := range idx {
		if id < 0 || int(id) >= rows {
			panic(fmt.Sprintf("tensor: gather index %d out of %d rows", id, rows))
		}
	}
	compute.ParallelGrain(len(idx), rowGrain(cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			id := int(idx[i])
			copy(out[i*cols:(i+1)*cols], x[id*cols:(id+1)*cols])
		}
	})
}

// segmentMeanInto writes into the zeroed out (len(counts)×cols) the mean of
// x's rows per segment id seg[i], and each segment's row count into the
// zeroed counts. Empty segments stay zero. The accumulation is
// column-striped, in ascending row order.
func segmentMeanInto[T float](out, x []T, rows, cols int, seg []int32, counts []T) {
	if len(seg) != rows {
		panic(fmt.Sprintf("tensor: segment count %d != rows %d", len(seg), rows))
	}
	numSeg := len(counts)
	for _, s := range seg {
		if s < 0 || int(s) >= numSeg {
			panic(fmt.Sprintf("tensor: segment id %d out of %d", s, numSeg))
		}
		counts[s]++
	}
	compute.ParallelGrain(cols, workGrain(len(seg)), func(jlo, jhi int) {
		for i, s := range seg {
			for j := jlo; j < jhi; j++ {
				out[int(s)*cols+j] += x[i*cols+j]
			}
		}
		for s := 0; s < numSeg; s++ {
			if counts[s] == 0 {
				continue
			}
			inv := 1 / counts[s]
			for j := jlo; j < jhi; j++ {
				out[s*cols+j] *= inv
			}
		}
	})
}

// batchNorm writes to out each column of x (rows×cols) normalised over the
// rows, then gamma⊙x̂ + beta: full-batch statistics, one column per chunk
// so every accumulator sums in serial order. xhat and invStd are both nil
// or both set; set, they receive x̂ and each column's 1/σ, what the float64
// backward keeps.
func batchNorm[T float](out, x []T, rows, cols int, gamma, beta, xhat, invStd []T) {
	m := T(rows)
	compute.ParallelGrain(cols, workGrain(rows), func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			var mean T
			for i := 0; i < rows; i++ {
				mean += x[i*cols+j]
			}
			mean /= m
			var vari T
			for i := 0; i < rows; i++ {
				d := x[i*cols+j] - mean
				vari += T(d * d)
			}
			vari /= m
			is := T(1 / math.Sqrt(float64(vari)+normEps))
			if xhat == nil {
				for i := 0; i < rows; i++ {
					out[i*cols+j] = T(gamma[j]*((x[i*cols+j]-mean)*is)) + beta[j]
				}
				continue
			}
			invStd[j] = is
			for i := 0; i < rows; i++ {
				h := (x[i*cols+j] - mean) * is
				xhat[i*cols+j] = h
				out[i*cols+j] = T(gamma[j]*h) + beta[j]
			}
		}
	})
}
