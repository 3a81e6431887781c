// Package models implements the two GNN configurations the paper evaluates
// — Gated Graph ConvNet (GCN, Bresson & Laurent) and Graph Transformer (GT,
// Dwivedi & Bresson) — over two interchangeable attention engines:
//
//   - the DGL-style baseline (engine_dgl.go): per-directed-edge
//     gather/scatter aggregation over node IDs, profiled as irregular
//     gather/scatter/cub kernels;
//   - MEGA (engine_mega.go): the same mathematical aggregation expressed
//     over the band representation's pair list, profiled as sequential
//     banded sweeps plus a duplicate-synchronisation kernel.
//
// Both engines drive the identical layer code through a Context: a list of
// directed attention pairs (receiver row, sender row, undirected edge ID)
// over a working embedding matrix. The engines therefore share parameters
// exactly — the paper's "identical parameter counts" requirement — and
// differ only in row layout, pair order, duplicate handling, and the
// simulated memory behaviour reported to gpusim.
package models

import (
	"math"

	"mega/internal/nn"
	"mega/internal/tensor"
)

// Context carries everything one forward pass needs: the pair list, row
// metadata, readout segments, and the profiler that accounts simulated GPU
// cost.
type Context struct {
	// NumRows is the number of working embedding rows: total nodes for
	// the DGL engine, total path positions for MEGA.
	NumRows int
	// RecvIdx/SendIdx/EdgeIdx describe the directed attention pairs:
	// pair p aggregates row SendIdx[p] into row RecvIdx[p] using
	// undirected edge EdgeIdx[p]'s features.
	RecvIdx []int32
	SendIdx []int32
	EdgeIdx []int32
	// NumEdges is the undirected edge count (edge-embedding rows).
	NumEdges int
	// NodeTypeIDs[r] is the categorical node feature for working row r.
	NodeTypeIDs []int32
	// EdgeTypeIDs[e] is the categorical edge feature for edge e.
	EdgeTypeIDs []int32
	// GraphSeg[r] is the member-graph index of working row r; readout
	// pools rows by this segmentation.
	GraphSeg []int32
	// NumGraphs is the batch size for readout.
	NumGraphs int

	// Prof receives simulated-kernel notifications; nil disables
	// profiling entirely.
	Prof *Prof

	// Targets for training: exactly one of the two is used depending on
	// the dataset task.
	Targets *tensor.Tensor // [NumGraphs,1] regression targets
	Labels  []int          // classification labels

	// Scratch pools the fused attention path's forward/backward scratch
	// buffers across steps (owned by the train loop or the serve worker
	// pool); nil falls back to plain allocation.
	Scratch *tensor.Arena

	// Tape holds the f64 graph of a forward and its backward (op results,
	// gradients, backward scratch); its owner releases it after each step.
	// Nil builds the graph on the heap. The encoder brings the graph onto
	// it; every later op inherits it.
	Tape *tensor.Tape

	// counter tallies abstract op calls for Table I; nil outside
	// CountOps probes.
	counter *opCounter

	// MEGA-engine structure: what duplicate sync and readout read, at
	// either precision, and what the shard engine replays chunk by chunk.
	// Nil / zero for the DGL engine, whose rows are unique and pool per
	// graph directly.
	posToNode    []int32 // working row → globally unique node slot
	nodeGraph    []int32 // node slot → member-graph index
	numNodeSlots int     // total node slots across the batch
	maxWindow    int     // widest band half-width ω in the batch
	// syncPositions lists the rows belonging to duplicate groups (empty
	// means duplicate sync is the identity).
	syncPositions []int32

	// Lazily-built CSR groupings of the pair list, shared by every fused
	// attention layer and step over this context.
	byRecv, bySend, byEdge *tensor.Segments
}

// recvSegments groups pairs by receiver row (built once, cached).
func (c *Context) recvSegments() *tensor.Segments {
	if c.byRecv == nil {
		c.byRecv = tensor.BuildSegments(c.RecvIdx, c.NumRows)
	}
	return c.byRecv
}

// sendSegments groups pairs by sender row.
func (c *Context) sendSegments() *tensor.Segments {
	if c.bySend == nil {
		c.bySend = tensor.BuildSegments(c.SendIdx, c.NumRows)
	}
	return c.bySend
}

// edgeSegments groups pairs by undirected edge ID.
func (c *Context) edgeSegments() *tensor.Segments {
	if c.byEdge == nil {
		c.byEdge = tensor.BuildSegments(c.EdgeIdx, c.NumEdges)
	}
	return c.byEdge
}

// NumPairs returns the directed pair count.
func (c *Context) NumPairs() int { return len(c.RecvIdx) }

// GatherRecv gathers h rows at each pair's receiver.
func (c *Context) GatherRecv(h *tensor.Tensor) *tensor.Tensor {
	if c.counter != nil {
		c.counter.gathers++
	}
	c.Prof.pairGatherNodes(c, c.RecvIdx, h.Cols())
	return tensor.GatherRows(h, c.RecvIdx)
}

// GatherSend gathers h rows at each pair's sender.
func (c *Context) GatherSend(h *tensor.Tensor) *tensor.Tensor {
	if c.counter != nil {
		c.counter.gathers++
	}
	c.Prof.pairGatherNodes(c, c.SendIdx, h.Cols())
	return tensor.GatherRows(h, c.SendIdx)
}

// GatherEdges gathers the undirected edge embedding behind each pair.
func (c *Context) GatherEdges(e *tensor.Tensor) *tensor.Tensor {
	if c.counter != nil {
		c.counter.gathers++
	}
	c.Prof.pairGatherEdges(c, e.Cols())
	return tensor.GatherRows(e, c.EdgeIdx)
}

// AggregateByRecv sums pair values into their receiver rows.
func (c *Context) AggregateByRecv(x *tensor.Tensor) *tensor.Tensor {
	if c.counter != nil {
		c.counter.scatters++
	}
	c.Prof.pairScatter(c, x.Cols())
	return tensor.ScatterAddRows(x, c.RecvIdx, c.NumRows)
}

// EdgeMean averages pair values back onto their undirected edges (both
// directions of an edge contribute), producing the updated edge embedding.
func (c *Context) EdgeMean(x *tensor.Tensor) *tensor.Tensor {
	if c.counter != nil {
		c.counter.scatters++
	}
	c.Prof.edgeReduce(c, x.Cols())
	return tensor.SegmentMean(x, c.EdgeIdx, c.NumEdges)
}

// Linear applies a linear layer with sgemm profiling and op counting.
func (c *Context) Linear(l *nn.Linear, x *tensor.Tensor) *tensor.Tensor {
	return c.LinearEpilogue(l, x, tensor.Epilogue{})
}

// LinearEpilogue applies a linear layer and then the rest of ep in its row
// epilogue. It emits the sgemm and then the elementwise kernels Act (the
// ReLU) and Norm (the LayerNorm) emitted for the passes the epilogue took
// over, in their order: the simulated L2 is order-sensitive.
func (c *Context) LinearEpilogue(l *nn.Linear, x *tensor.Tensor, ep tensor.Epilogue) *tensor.Tensor {
	if c.counter != nil {
		c.counter.linears++
	}
	size := x.Rows() * l.W.Cols()
	c.Prof.Linear(x.Rows(), x.Cols(), l.W.Cols())
	if ep.ReLU {
		c.Prof.Elementwise(size)
	}
	if ep.Gamma != nil {
		c.Prof.Elementwise(2 * size)
	}
	return l.ForwardEpilogue(x, ep)
}

// Act applies an elementwise activation with profiling.
func (c *Context) Act(f func(*tensor.Tensor) *tensor.Tensor, x *tensor.Tensor) *tensor.Tensor {
	c.Prof.Elementwise(x.Size())
	return f(x)
}

// Norm applies a normalisation layer with profiling.
func (c *Context) Norm(n *nn.Norm, x *tensor.Tensor) *tensor.Tensor {
	c.Prof.Elementwise(2 * x.Size())
	return n.Forward(x)
}

// SegmentSoftmaxByRecv computes a numerically stable softmax of per-pair
// scores ([P,1]) grouped by receiver, the attention normalisation of GT.
func (c *Context) SegmentSoftmaxByRecv(score *tensor.Tensor) *tensor.Tensor {
	// Per-receiver max as a constant shift (no gradient contribution).
	maxPer := make([]float64, c.NumRows)
	for i := range maxPer {
		maxPer[i] = math.Inf(-1)
	}
	for p, r := range c.RecvIdx {
		if v := score.Data[p]; v > maxPer[r] {
			maxPer[r] = v
		}
	}
	shift := tensor.Zeros(len(c.RecvIdx), 1)
	for p, r := range c.RecvIdx {
		shift.Data[p] = maxPer[r]
	}
	ex := tensor.Exp(tensor.Sub(score, shift))
	denom := c.AggregateByRecv(ex)
	denomPer := c.GatherRecv(tensor.AddScalar(denom, 1e-9))
	return tensor.Div(ex, denomPer)
}

// NormalizeByRecvSum divides per-pair gate values ([P,d]) by the sum of the
// gates over each receiver (plus eps), GatedGCN's η normalisation.
func (c *Context) NormalizeByRecvSum(gate *tensor.Tensor, eps float64) *tensor.Tensor {
	denom := c.AggregateByRecv(gate)
	denomPer := c.GatherRecv(tensor.AddScalar(denom, eps))
	return tensor.Div(gate, denomPer)
}

// SyncDuplicates merges MEGA's duplicate rows after a layer: it averages
// the rows of each node slot and gathers the means back, one segment
// reduction charged as a sync kernel. It is the identity when no row
// repeats (always on the DGL engine).
func (c *Context) SyncDuplicates(h *tensor.Tensor) *tensor.Tensor {
	if len(c.syncPositions) == 0 {
		return h
	}
	c.Prof.SyncCost(h.Cols())
	return tensor.GatherRows(tensor.SegmentMean(h, c.posToNode, c.numNodeSlots), c.posToNode)
}

// FusedGTAttention runs the GT layer's whole attention block — per-pair
// q/k/v/ê projections, edge-modulated scaled dot-product scores, segment
// softmax, and per-head aggregation — as one fused kernel, plus the
// per-edge mean of k⊙ê for the edge stream. Bit-identical to the staged
// pipeline. It tallies the same abstract op counts and emits the same
// simulated-kernel address streams as the staged ops it replaces (the
// kernel reads the same rows in the same band order, so profiling stays
// honest); only the edge-mean scatter is emitted separately, via
// NoteEdgeMean at the staged pipeline's emission point.
func (c *Context) FusedGTAttention(q, k, v, ew *tensor.Tensor, heads int) (att, edgeMean *tensor.Tensor) {
	if c.counter != nil {
		c.counter.gathers += 4 + heads
		c.counter.scatters += 2 * heads
	}
	c.Prof.pairGatherNodes(c, c.RecvIdx, q.Cols())
	c.Prof.pairGatherNodes(c, c.SendIdx, k.Cols())
	c.Prof.pairGatherNodes(c, c.SendIdx, v.Cols())
	c.Prof.pairGatherEdges(c, ew.Cols())
	dk := q.Cols() / heads
	for a := 0; a < heads; a++ {
		c.Prof.pairScatter(c, 1)
		c.Prof.pairGatherNodes(c, c.RecvIdx, 1)
		c.Prof.pairScatter(c, dk)
	}
	return tensor.FusedSegmentAttention(q, k, v, ew, c.RecvIdx, c.SendIdx, c.EdgeIdx,
		c.recvSegments(), c.sendSegments(), c.edgeSegments(), heads, c.Scratch)
}

// NoteEdgeMean accounts the edge-mean reduction already computed inside
// FusedGTAttention, at the exact point the staged pipeline emitted it —
// the simulated L2 is order-sensitive, so emission order is part of the
// profiling contract.
func (c *Context) NoteEdgeMean(cols int) {
	if c.counter != nil {
		c.counter.scatters++
	}
	c.Prof.edgeReduce(c, cols)
}

// FusedGATAttention runs the GAT layer's attention block — additive
// leaky-ReLU scores from the aL/aR attention vectors, segment softmax,
// per-head aggregation of Wh — as one fused kernel, bit-identical to the
// staged pipeline, with the staged path's op counts and kernel emissions.
func (c *Context) FusedGATAttention(wh, aL, aR *tensor.Tensor, heads int) *tensor.Tensor {
	if c.counter != nil {
		c.counter.gathers += 3 + heads
		c.counter.scatters += 2 * heads
	}
	c.Prof.pairGatherNodes(c, c.SendIdx, wh.Cols())
	c.Prof.pairGatherNodes(c, c.RecvIdx, wh.Cols())
	c.Prof.pairGatherNodes(c, c.SendIdx, wh.Cols())
	dk := wh.Cols() / heads
	for a := 0; a < heads; a++ {
		c.Prof.Elementwise(c.NumPairs())
		c.Prof.pairScatter(c, 1)
		c.Prof.pairGatherNodes(c, c.RecvIdx, 1)
		c.Prof.pairScatter(c, dk)
	}
	return tensor.FusedAdditiveAttention(wh, aL, aR, c.RecvIdx, c.SendIdx,
		c.recvSegments(), c.sendSegments(), heads, c.Scratch)
}

// Readout mean-pools working rows per member graph. On a MEGA context it
// pools positions to node slots first, then nodes to graphs, so that
// revisited nodes carry the same weight as in the DGL engine.
func (c *Context) Readout(h *tensor.Tensor) *tensor.Tensor {
	c.Prof.elementwise(h.Size())
	if c.posToNode == nil {
		return tensor.SegmentMean(h, c.GraphSeg, c.NumGraphs)
	}
	return tensor.SegmentMean(tensor.SegmentMean(h, c.posToNode, c.numNodeSlots), c.nodeGraph, c.NumGraphs)
}
