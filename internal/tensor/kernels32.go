package tensor

import (
	"fmt"
	"math"

	"mega/internal/compute"
)

// Forward-only float32 kernels for the inference fast path. These mirror
// the float64 kernels' loop structure and deterministic decompositions
// (row splits for dense work, column stripes for scatter accumulation) but
// build no tape: outputs are plain F32 values whose payloads come from the
// arena's float32 buckets. Like every kernel in this package they are
// bit-identical at any thread count; across precisions the contract is the
// bounded divergence envelope measured by MeasureDivergence, not
// bit-identity.

// MatMul32 computes a·b through matmulRows, the loop nest the float64
// matmul runs, with the SSE register tile matmulTile32 as its micro-kernel.
// Per output element the accumulation is the same ascending-p mul-then-add
// chain, so results are bit-identical at any thread count and on any
// architecture; only the throughput differs.
func MatMul32(a, b *F32, arena *Arena) *F32 {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: matmul32 %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := arena.GetF32(a.rows, b.cols)
	compute.ParallelGrain(a.rows, workGrain(a.cols*b.cols), func(lo, hi int) {
		matmulRows(out.Data, a.Data, b.Data, a.cols, 1, a.cols, b.cols, lo, hi, matmulTile32)
	})
	return out
}

// AddBias32 adds the 1×cols bias vector to every row of x, in place.
func AddBias32(x *F32, bias []float32) {
	if len(bias) != x.cols {
		panic(fmt.Sprintf("tensor: addbias32 %d != %d cols", len(bias), x.cols))
	}
	cols := x.cols
	compute.ParallelGrain(x.rows, rowGrain(cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := x.Data[i*cols : (i+1)*cols]
			for j := range row {
				row[j] += bias[j]
			}
		}
	})
}

// Add32 returns a + b elementwise.
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

// ReLU32 applies max(0, x) in place.
func ReLU32(x *F32) {
	compute.ParallelGrain(len(x.Data), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x.Data[i] < 0 {
				x.Data[i] = 0
			}
		}
	})
}

// LayerNorm32 normalises each row of x to zero mean and unit variance and
// applies gamma⊙x̂ + beta. Statistics accumulate in float32 (rows are
// model-dim wide — well within float32's stable summation range); the
// rsqrt goes through float64 like exp32 does, for one correctly-rounded
// special-function evaluation per row.
func LayerNorm32(x *F32, gamma, beta []float32, arena *Arena) *F32 {
	cols := x.cols
	if len(gamma) != cols || len(beta) != cols {
		panic(fmt.Sprintf("tensor: layernorm32 affine %d/%d for %d cols", len(gamma), len(beta), cols))
	}
	n := float32(cols)
	out := arena.GetF32(x.rows, cols)
	compute.ParallelGrain(x.rows, rowGrain(cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := x.Data[i*cols : (i+1)*cols]
			var mean float32
			for _, v := range row {
				mean += v
			}
			mean /= n
			var vari float32
			for _, v := range row {
				d := v - mean
				vari += d * d
			}
			vari /= n
			is := float32(1 / math.Sqrt(float64(vari)+normEps))
			orow := out.Data[i*cols : (i+1)*cols]
			for j, v := range row {
				orow[j] = gamma[j]*((v-mean)*is) + beta[j]
			}
		}
	})
	return out
}

// BatchNorm32 normalises each column of x over the batch (full-batch
// statistics, matching the float64 training-mode BatchNorm) and applies
// gamma⊙x̂ + beta. Column-striped like its float64 counterpart.
func BatchNorm32(x *F32, gamma, beta []float32, arena *Arena) *F32 {
	cols := x.cols
	if len(gamma) != cols || len(beta) != cols {
		panic(fmt.Sprintf("tensor: batchnorm32 affine %d/%d for %d cols", len(gamma), len(beta), cols))
	}
	m := float32(x.rows)
	out := arena.GetF32(x.rows, cols)
	compute.ParallelGrain(cols, workGrain(x.rows), func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			var mean float32
			for i := 0; i < x.rows; i++ {
				mean += x.Data[i*cols+j]
			}
			mean /= m
			var vari float32
			for i := 0; i < x.rows; i++ {
				d := x.Data[i*cols+j] - mean
				vari += d * d
			}
			vari /= m
			is := float32(1 / math.Sqrt(float64(vari)+normEps))
			for i := 0; i < x.rows; i++ {
				out.Data[i*cols+j] = gamma[j]*((x.Data[i*cols+j]-mean)*is) + beta[j]
			}
		}
	})
	return out
}

// GatherRows32 returns the rows of x selected by idx.
func GatherRows32(x *F32, idx []int32, arena *Arena) *F32 {
	cols := x.cols
	for _, id := range idx {
		if id < 0 || int(id) >= x.rows {
			panic(fmt.Sprintf("tensor: gather32 index %d out of %d rows", id, x.rows))
		}
	}
	out := arena.GetF32(len(idx), cols)
	compute.ParallelGrain(len(idx), rowGrain(cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			id := int(idx[i])
			copy(out.Data[i*cols:(i+1)*cols], x.Data[id*cols:(id+1)*cols])
		}
	})
	return out
}

// SegmentMean32 returns a numSeg×cols matrix whose row s is the mean of
// the rows of x with seg[i] == s. Empty segments stay zero. Column-striped
// scatter accumulation in ascending row order, like the float64 kernel.
func SegmentMean32(x *F32, seg []int32, numSeg int, arena *Arena) *F32 {
	if len(seg) != x.rows {
		panic(fmt.Sprintf("tensor: segmentmean32 count %d != rows %d", len(seg), x.rows))
	}
	cols := x.cols
	counts := make([]float32, numSeg)
	for _, s := range seg {
		if s < 0 || int(s) >= numSeg {
			panic(fmt.Sprintf("tensor: segmentmean32 id %d out of %d", s, numSeg))
		}
		counts[s]++
	}
	out := arena.GetF32(numSeg, cols)
	compute.ParallelGrain(cols, workGrain(len(seg)), func(jlo, jhi int) {
		for i, s := range seg {
			for j := jlo; j < jhi; j++ {
				out.Data[int(s)*cols+j] += x.Data[i*cols+j]
			}
		}
		for s := 0; s < numSeg; s++ {
			if counts[s] == 0 {
				continue
			}
			inv := 1 / counts[s]
			for j := jlo; j < jhi; j++ {
				out.Data[s*cols+j] *= inv
			}
		}
	})
	return out
}
