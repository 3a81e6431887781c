package models

import (
	"fmt"
	"sync"

	"mega/internal/band"
	"mega/internal/compute"
	"mega/internal/datasets"
	"mega/internal/gpusim"
	"mega/internal/graph"
	"mega/internal/tensor"
	"mega/internal/traverse"
)

// MegaOptions configures the MEGA engine's preprocessing.
type MegaOptions struct {
	// Traverse controls the path construction (window, coverage, edge
	// dropping). Zero-valued fields resolve per field to
	// traverse.DefaultOptions: EdgeCoverage 0 means full coverage and
	// Start 0 means highest-degree start — an explicit vertex-0 start
	// must be requested via PinStart, since 0 is also the zero value.
	Traverse traverse.Options

	// startPinned marks Traverse.Start as explicitly set, so a zero
	// Start means "vertex 0", not "use the default". Set via PinStart —
	// the explicit-set marker idiom of serve.Options.WithCacheCapacity.
	startPinned bool
}

// PinStart returns o with the traversal start pinned to v, unambiguously:
// PinStart(0) starts at vertex 0, whereas a zero Traverse.Start without
// PinStart resolves to the default (highest-degree) start.
func (o MegaOptions) PinStart(v graph.NodeID) MegaOptions {
	o.Traverse.Start = v
	o.startPinned = true
	return o
}

// traverseOptions resolves zero-valued fields to the engine defaults,
// per field: previously the defaults applied only when EdgeCoverage,
// Window, and Start were all zero, so an explicitly-set Window silently
// turned EdgeCoverage 0 into "cover nothing" and Start 0 into "vertex 0".
func (o MegaOptions) traverseOptions() traverse.Options {
	t := o.Traverse
	def := traverse.DefaultOptions()
	if t.EdgeCoverage == 0 {
		t.EdgeCoverage = def.EdgeCoverage
	}
	if t.Start == 0 && !o.startPinned {
		t.Start = def.Start
	}
	return t
}

// TraverseOptions returns the fully resolved traversal options this engine
// feeds traverse.Run — exported so subsystems that must reproduce the
// preprocessing bit-for-bit (the dynamic maintainer behind serve's /update)
// share the exact same defaulting.
func (o MegaOptions) TraverseOptions() traverse.Options { return o.traverseOptions() }

// PreparedRep is the CPU preprocessing output for one graph: the band
// representation plus the traversal it came from. It depends only on the
// graph topology and the traverse options — not on features, targets, or
// batch composition — so it can be computed once and reused across batches
// (the amortisation an inference cache exploits; see internal/serve).
type PreparedRep struct {
	Rep *band.Rep
	Res *traverse.Result

	// plan is the lazily-built per-graph segment plan (pair lists, CSR
	// segment groupings, duplicate-group tables) — see plan.go. Built at
	// most once per rep and shared read-only across batches.
	planOnce sync.Once
	plan     *SegmentPlan
}

// PrepareMega runs the MEGA preprocessing (traversal + band construction)
// for a single graph under the engine's option defaulting.
func PrepareMega(g *graph.Graph, opts MegaOptions) (*PreparedRep, error) {
	rep, res, err := band.FromGraph(g, opts.traverseOptions())
	if err != nil {
		return nil, err
	}
	return &PreparedRep{Rep: rep, Res: res}, nil
}

// NewMegaContext builds the banded-attention context: each instance is
// traversed into a path representation on the CPU ("the preprocessing
// occurs on the CPU and is decoupled from the interleaved graph and neural
// operations on the GPU", §I); the paths are concatenated and the pair list
// enumerates masked band entries in offset-major order — the order a GPU
// would sweep them sequentially.
//
// sim may be nil to skip profiling. dim sizes the simulated buffers.
func NewMegaContext(insts []datasets.Instance, opts MegaOptions, sim *gpusim.Sim, dim int) (*Context, error) {
	topts := opts.traverseOptions()

	// Per-instance traversals are independent: fan the preprocessing out
	// across the worker pool (the paper decouples this stage from the GPU
	// precisely so it can run ahead on the host).
	preps := make([]*PreparedRep, len(insts))
	errs := make([]error, len(insts))
	compute.Parallel(len(insts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rep, res, err := band.FromGraph(insts[i].G, topts)
			if err != nil {
				errs[i] = err
				continue
			}
			preps[i] = &PreparedRep{Rep: rep, Res: res}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return NewMegaContextFromReps(insts, preps, sim, dim)
}

// NewMegaContextFromReps assembles the banded-attention context from
// already-computed path representations, one per instance — the entry point
// for callers that cache preprocessing across batches. preps[i] must have
// been produced from insts[i].G (a PrepareMega result, possibly retrieved
// by topology fingerprint).
func NewMegaContextFromReps(insts []datasets.Instance, preps []*PreparedRep, sim *gpusim.Sim, dim int) (*Context, error) {
	if len(preps) != len(insts) {
		return nil, fmt.Errorf("models: %d prepared reps for %d instances", len(preps), len(insts))
	}
	for i, p := range preps {
		if p == nil || p.Rep == nil || p.Res == nil {
			return nil, fmt.Errorf("models: prepared rep %d is nil", i)
		}
		if p.Res.Graph.NumNodes() != insts[i].G.NumNodes() {
			return nil, fmt.Errorf("models: prepared rep %d covers %d nodes, instance has %d",
				i, p.Res.Graph.NumNodes(), insts[i].G.NumNodes())
		}
	}
	// Per-graph segment plans: built once per rep and reused across every
	// batch it appears in (the serving cache's amortisation). The plans
	// carry the pair lists, CSR groupings, and duplicate tables the code
	// below used to re-derive from the band mask on every forward.
	plans := make([]*SegmentPlan, len(preps))
	compute.Parallel(len(preps), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			plans[i] = preps[i].Plan()
		}
	})

	totalRows, totalEdges, maxWindow := 0, 0, 1
	for _, pl := range plans {
		totalRows += pl.Rows
		totalEdges += pl.Edges
		if pl.Window > maxWindow {
			maxWindow = pl.Window
		}
	}

	ctx := &Context{
		NumRows:   totalRows,
		NumEdges:  totalEdges,
		NumGraphs: len(insts),
	}

	// Per-member row/edge/node prefix offsets: the batch layout is a pure
	// function of the preps, pinned up front so every parallel fill below
	// knows exactly which disjoint range it owns.
	rowOff := make([]int32, len(preps)+1)
	edgeOff := make([]int32, len(preps)+1)
	nodeOff := make([]int32, len(preps)+1)
	for gi, pl := range plans {
		rowOff[gi+1] = rowOff[gi] + int32(pl.Rows)
		edgeOff[gi+1] = edgeOff[gi] + int32(pl.Edges)
		nodeOff[gi+1] = nodeOff[gi] + int32(insts[gi].G.NumNodes())
	}

	// Offset-major pair enumeration: all offset-1 pairs of every member,
	// then offset-2, etc. — the sweep order of the banded kernel. Each
	// member's plan already holds its pairs in this order with per-offset
	// block boundaries, and a member's local enumeration maps monotonically
	// into the batch's global one, so assembly is block copies with row /
	// edge offset adds — byte-identical to the mask re-enumeration it
	// replaces, at any thread count. A single-graph batch (the serving
	// cache-hit hot path) skips even the copy and shares the plan's arrays
	// and segment groupings outright (they are read-only by contract).
	if len(preps) == 1 {
		pl := plans[0]
		ctx.RecvIdx, ctx.SendIdx, ctx.EdgeIdx = pl.Recv, pl.Send, pl.Edge
		ctx.byRecv, ctx.bySend, ctx.byEdge = pl.ByRecv, pl.BySend, pl.ByEdge
	} else {
		type fillJob struct {
			gi, o int
			pair  int // directed-pair index of the block's first pair
		}
		var jobs []fillJob
		totalPairs := 0
		for o := 1; o <= maxWindow; o++ {
			for gi, pl := range plans {
				if o > pl.Window {
					continue
				}
				if c := int(pl.OffsetStart[o] - pl.OffsetStart[o-1]); c > 0 {
					jobs = append(jobs, fillJob{gi: gi, o: o, pair: totalPairs})
					totalPairs += c
				}
			}
		}
		ctx.RecvIdx = make([]int32, totalPairs)
		ctx.SendIdx = make([]int32, totalPairs)
		ctx.EdgeIdx = make([]int32, totalPairs)
		compute.Parallel(len(jobs), func(jlo, jhi int) {
			for ji := jlo; ji < jhi; ji++ {
				job := jobs[ji]
				pl := plans[job.gi]
				blo, bhi := pl.OffsetStart[job.o-1], pl.OffsetStart[job.o]
				ro, eo := rowOff[job.gi], edgeOff[job.gi]
				at := job.pair
				for i := blo; i < bhi; i++ {
					ctx.RecvIdx[at] = pl.Recv[i] + ro
					ctx.SendIdx[at] = pl.Send[i] + ro
					ctx.EdgeIdx[at] = pl.Edge[i] + eo
					at++
				}
			}
		})
	}

	// Row and edge metadata: every member owns the [rowOff[gi], rowOff[gi+1])
	// and [edgeOff[gi], edgeOff[gi+1]) stripes, so members fill in parallel.
	// posToNode maps every working row to a globally unique node slot so
	// duplicate rows of the same node synchronise together.
	ctx.NodeTypeIDs = make([]int32, totalRows)
	ctx.EdgeTypeIDs = make([]int32, totalEdges)
	ctx.GraphSeg = make([]int32, totalRows)
	posToNode := make([]int32, totalRows)
	memberSync := make([][]int32, len(preps))
	compute.Parallel(len(preps), func(glo, ghi int) {
		for gi := glo; gi < ghi; gi++ {
			mr := preps[gi]
			pl := plans[gi]
			inst := insts[gi]
			ro, no, eo := rowOff[gi], nodeOff[gi], edgeOff[gi]
			for pi, v := range pl.PosToNode {
				ctx.NodeTypeIDs[ro+int32(pi)] = inst.NodeFeat[v]
				ctx.GraphSeg[ro+int32(pi)] = int32(gi)
				posToNode[ro+int32(pi)] = no + v
			}
			sync := make([]int32, len(pl.SyncPositions))
			for i, p := range pl.SyncPositions {
				sync[i] = ro + p
			}
			memberSync[gi] = sync
			// Edge features follow the (possibly edge-dropped) walked graph:
			// map its edges back to the instance's feature list by identity
			// of edge order when nothing is dropped, or by lookup otherwise.
			walked := mr.Res.Graph
			if walked.NumEdges() == inst.G.NumEdges() {
				copy(ctx.EdgeTypeIDs[eo:eo+int32(len(inst.EdgeFeat))], inst.EdgeFeat)
			} else {
				feat := edgeFeatureLookup(inst)
				for ei, e := range walked.Edges() {
					ctx.EdgeTypeIDs[eo+int32(ei)] = feat[edgeKey(e.Src, e.Dst)]
				}
			}
		}
	})
	var syncPositions []int32
	for _, s := range memberSync {
		syncPositions = append(syncPositions, s...)
	}

	// Node slot → member graph, for the node-level readout.
	numNodes := int(nodeOff[len(preps)])
	nodeGraph := make([]int32, numNodes)
	for gi := range insts {
		for v := nodeOff[gi]; v < nodeOff[gi+1]; v++ {
			nodeGraph[v] = int32(gi)
		}
	}

	// The structure duplicate sync and readout read (SyncDuplicates,
	// Readout), and the shard engine replays across chunks.
	ctx.posToNode = posToNode
	ctx.nodeGraph = nodeGraph
	ctx.numNodeSlots = numNodes
	ctx.maxWindow = maxWindow
	ctx.syncPositions = syncPositions

	if sim != nil {
		prof := NewProf(sim, EngineMega, totalRows, totalEdges, dim)
		prof.SetMegaBand(maxWindow, syncPositions)
		ctx.Prof = prof
	}
	attachTargets(ctx, insts)
	return ctx, nil
}

// edgeKey canonicalises an undirected vertex pair.
func edgeKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// edgeFeatureLookup indexes an instance's edge features by vertex pair.
func edgeFeatureLookup(inst datasets.Instance) map[[2]int32]int32 {
	out := make(map[[2]int32]int32, inst.G.NumEdges())
	for i, e := range inst.G.Edges() {
		out[edgeKey(e.Src, e.Dst)] = inst.EdgeFeat[i]
	}
	return out
}

// newColumn builds an n×1 tensor from a slice.
func newColumn(xs []float64) *tensor.Tensor {
	t := tensor.Zeros(len(xs), 1)
	copy(t.Data, xs)
	return t
}
