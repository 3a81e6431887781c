package tensor

import (
	"fmt"

	"mega/internal/compute"
)

// Indexed and shifted-row operations: the graph side of the models. In the
// DGL-style engine these back the gather/scatter aggregation; in the MEGA
// engine SegmentMean implements duplicate synchronisation and graph readout.
//
// Gather directions split rows (each output row is owned by one chunk);
// scatter directions split columns, because arbitrary index lists may send
// many rows into one accumulator row — a column stripe is the only
// partition whose writes stay disjoint while preserving the serial
// ascending-i accumulation order.

// GatherRows returns x[idx] — a len(idx)×cols tensor whose row i is
// x.Row(idx[i]). The backward pass scatter-adds gradients.
func GatherRows(x *Tensor, idx []int32) *Tensor { return gatherRows(nil, x, idx) }

// gatherRows is GatherRows with its result on tp (see newResultOn).
func gatherRows(tp *Tape, x *Tensor, idx []int32) *Tensor {
	out := newResultOn(tp, len(idx), x.cols, false, x)
	cols := x.cols
	gatherRowsInto(out.Data, x.Data, x.rows, cols, idx)
	if out.requiresGrad {
		out.backFn = func() {
			x.ensureGrad()
			compute.ParallelGrain(cols, workGrain(len(idx)), func(jlo, jhi int) {
				for i, id := range idx {
					for j := jlo; j < jhi; j++ {
						x.Grad[int(id)*cols+j] += out.Grad[i*cols+j]
					}
				}
			})
		}
	}
	return out
}

// ScatterAddRows returns a numRows×cols tensor where row idx[i] accumulates
// x.Row(i) — the aggregation primitive of message passing.
func ScatterAddRows(x *Tensor, idx []int32, numRows int) *Tensor {
	if len(idx) != x.rows {
		panic(fmt.Sprintf("tensor: scatter index count %d != rows %d", len(idx), x.rows))
	}
	out := newResult(numRows, x.cols, x)
	cols := x.cols
	for _, id := range idx {
		if id < 0 || int(id) >= numRows {
			panic(fmt.Sprintf("tensor: scatter index %d out of %d rows", id, numRows))
		}
	}
	compute.ParallelGrain(cols, workGrain(len(idx)), func(jlo, jhi int) {
		for i, id := range idx {
			for j := jlo; j < jhi; j++ {
				out.Data[int(id)*cols+j] += x.Data[i*cols+j]
			}
		}
	})
	if out.requiresGrad {
		out.backFn = func() {
			x.ensureGrad()
			compute.ParallelGrain(len(idx), rowGrain(cols), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					id := int(idx[i])
					for j := 0; j < cols; j++ {
						x.Grad[i*cols+j] += out.Grad[id*cols+j]
					}
				}
			})
		}
	}
	return out
}

// SegmentMean returns a numSeg×cols tensor whose row s is the mean of the
// rows of x with seg[i] == s. Empty segments stay zero. Used for per-graph
// readout pooling and MEGA's duplicate-position synchronisation.
func SegmentMean(x *Tensor, seg []int32, numSeg int) *Tensor {
	out := newResult(numSeg, x.cols, x)
	cols := x.cols
	counts := out.tape.get(numSeg)
	segmentMeanInto(out.Data, x.Data, x.rows, cols, seg, counts)
	if out.requiresGrad {
		out.backFn = func() {
			x.ensureGrad()
			compute.ParallelGrain(len(seg), rowGrain(cols), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					inv := 1 / counts[seg[i]]
					for j := 0; j < cols; j++ {
						x.Grad[i*cols+j] += out.Grad[int(seg[i])*cols+j] * inv
					}
				}
			})
		}
	}
	return out
}

// EmbedRows looks up rows of a trainable embedding table by categorical ID:
// the input-feature encoder. It is GatherRows with int32 categories.
func EmbedRows(table *Tensor, ids []int32) *Tensor {
	return GatherRows(table, ids)
}
