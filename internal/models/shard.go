package models

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mega/internal/compute"
	"mega/internal/nn"
	"mega/internal/tensor"
)

// This file implements the shard-parallel execution engine for the MEGA
// path representation: the path's working rows are split into contiguous
// worker chunks with ω-row halos, each worker runs the real per-layer GT
// forward/backward over its chunk, and halo embeddings plus cross-chunk
// duplicate-group and edge-fold synchronisation travel between workers
// over channels. The output is bit-identical to the single-engine
// GT.Forward over the same context at any worker count.
//
// Determinism protocol (the whole design reduces to one rule): every
// floating-point reduction is performed by exactly one owner, over RAW
// rows, in ascending global order, starting from a zero base — the same
// sequence of adds the single engine's SegmentMean/ScatterAddRows kernels
// execute. Workers never exchange partial sums, because partial sums
// regroup the additions and break bit-identity.
//
// The path is always cut into shardChunks=8 canonical µchunks whose
// bounds, pair assignment, edge ownership, and tape structure are
// independent of the worker count; k workers own contiguous runs of
// µchunks (k must divide 8). Per-µchunk tapes therefore run the same
// kernels over the same rows at every k, which pins not only the forward
// values but also the backward gradients to k-invariant bit patterns.
const shardChunks = 8

// errShardAborted unwinds a worker that was waiting on a peer which
// panicked; it is recognised and swallowed by the worker guard.
var errShardAborted = errors.New("models: shard worker aborted")

// ErrUnshardable marks contexts the shard plan rejects for structural
// reasons (not a MEGA context, path shorter than the 8 canonical µchunks,
// or attention window wider than some µchunk). Callers fall back to the
// monolithic engine on it — the answer is bit-identical either way — and
// the distributed supervisor treats it as permanent: retrying on another
// replica cannot make a context shardable.
var ErrUnshardable = errors.New("models: context not shardable")

// ShardStats reports the traffic and timing of the last Forward (and, when
// run, Backward) of a ShardEngine. Forward message and byte counts are
// logical — one message per (halo boundary, layer), per (duplicate group,
// non-owner worker, layer, direction), per (edge, non-owner referencing
// worker, layer, direction) — exactly the granularity
// dist.AnalyzePathPartition predicts.
type ShardStats struct {
	Workers int

	HaloMessages int64
	HaloBytes    int64
	SyncMessages int64
	SyncBytes    int64
	EdgeMessages int64
	EdgeBytes    int64

	CollectMessages int64
	CollectBytes    int64

	BackwardMessages int64
	BackwardBytes    int64

	// Per-worker wall time of the forward and backward waves, in ns.
	ForwardNs  []int64
	BackwardNs []int64
}

// ForwardMessages totals the per-layer exchange messages (halo + duplicate
// sync + edge fold/broadcast), the quantity AnalyzePathPartition predicts
// per layer.
func (s ShardStats) ForwardMessages() int64 {
	return s.HaloMessages + s.SyncMessages + s.EdgeMessages
}

// ForwardBytes totals the per-layer exchange bytes.
func (s ShardStats) ForwardBytes() int64 {
	return s.HaloBytes + s.SyncBytes + s.EdgeBytes
}

// mcShard is the static plan of one canonical µchunk.
type mcShard struct {
	j      int // µchunk index
	lo, hi int // own working rows [lo, hi)
	// extLo/extHi is the pair-derived extended row range the µchunk's tape
	// computes over: own rows plus the sender rows its pairs reach. It is
	// derived from the pair list only, so it is identical at every worker
	// count (worker halos are a messaging concern, not a tape concern).
	extLo, extHi int

	pairs []int32 // global pair ids assigned here (receiver in own rows), ascending
	lctx  *Context

	localEdges []int32 // global edge ids this µchunk holds features for, ascending
	edgeLocal  map[int32]int
	ownEdges   []int32 // owned subset of localEdges, ascending

	nodeIDs   []int32 // NodeTypeIDs of own rows
	edgeTypes []int32 // EdgeTypeIDs of localEdges

	// Edge-fold plan (owner side): every pair referencing an owned edge,
	// ascending global pair id, with its owned-edge segment — the exact row
	// order EdgeMean accumulates in the single engine.
	foldPairs []int32
	foldSeg   []int32
}

// dupGroup is one duplicate-position group (a node revisited by the path).
type dupGroup struct {
	members  []int32 // global rows, ascending
	inv      float64 // 1/len(members), computed as SegmentMean does
	ownerW   int     // worker of members[0]
	workers  []int   // distinct member workers, ascending
	byWorker map[int][]int32
}

// edgeSendPlan schedules one forward fold message: the rows of this
// worker's pairs referencing a remotely-owned edge.
type edgeSendPlan struct {
	edge   int32
	ownerW int
	pairs  []int32 // this worker's referencing pairs, ascending
}

// edgeGradSendPlan schedules one backward edge-gradient fold message: the
// per-µchunk feature-gradient rows for a remotely-owned edge.
type edgeGradSendPlan struct {
	edge   int32
	ownerW int
	mcs    []int // this worker's µchunks holding the edge, ascending
}

// localEdgePlan lists, per worker, which of its µchunks hold an edge's
// features (for applying one broadcast to every holder).
type localEdgePlan struct {
	edge int32
	mcs  []int
}

// shardPlan is the full static execution plan for one (context, k) pair.
type shardPlan struct {
	workers, dim, layers, heads int
	L, omega                    int

	ub  []int // µchunk bounds, len shardChunks+1 (ceil-division cuts)
	wb  []int // worker bounds, len workers+1
	mcW []int // µchunk → worker

	mcs  []*mcShard
	wMCs [][]int // worker → its µchunks, ascending

	syncActive bool
	groups     []*dupGroup
	rowGroup   []int32 // global row → group index or -1

	edgeOwner      []int32 // edge → owning µchunk
	edgeRefWorkers [][]int // edge → distinct referencing workers, ascending
	edgeRefMCs     [][]int // edge → distinct referencing µchunks, ascending
	pairMC         []int32 // pair → its µchunk
	pairRow        []int32 // pair → row within its µchunk's pair list
	edgeIdx        []int32 // the context's global pair→edge map

	wEdgeSend     [][]edgeSendPlan
	wEdgeGradSend [][]edgeGradSendPlan
	wLocalEdges   [][]localEdgePlan

	fwdCap, bwdCap []int // exact per-worker incoming message counts per wave
}

func (p *shardPlan) mcOfRow(r int) int { return r * shardChunks / p.L }
func (p *shardPlan) wOfRow(r int) int  { return p.mcW[p.mcOfRow(r)] }

// gtReplica is one µchunk's grad-isolated, data-shared view of the model.
type gtReplica struct {
	encNode, encEdge *nn.Embedding
	layers           []*gtLayer
}

// replica builds a full parameter replica of m (minus the readout, which
// only the root tape touches) plus its parameter list in master order.
func (m *GT) replica() (*gtReplica, []*tensor.Tensor) {
	r := &gtReplica{encNode: m.enc.node.Replicate(), encEdge: m.enc.edge.Replicate()}
	params := nn.CollectParams(r.encNode, r.encEdge)
	for _, l := range m.layers {
		rl := &gtLayer{
			q: l.q.Replicate(), k: l.k.Replicate(), v: l.v.Replicate(), o: l.o.Replicate(),
			we: l.we.Replicate(), oe: l.oe.Replicate(),
			ffnH1: l.ffnH1.Replicate(), ffnH2: l.ffnH2.Replicate(),
			ffnE1: l.ffnE1.Replicate(), ffnE2: l.ffnE2.Replicate(),
			lnH1: l.lnH1.Replicate(), lnH2: l.lnH2.Replicate(),
			lnE1: l.lnE1.Replicate(), lnE2: l.lnE2.Replicate(),
		}
		r.layers = append(r.layers, rl)
		params = append(params, nn.CollectParams(
			rl.q, rl.k, rl.v, rl.o, rl.we, rl.oe,
			rl.ffnH1, rl.ffnH2, rl.ffnE1, rl.ffnE2,
			rl.lnH1, rl.lnH2, rl.lnE1, rl.lnE2)...)
	}
	return r, params
}

// ShardEngine runs a GT model over a MEGA context split across k chunk
// workers. Construct once per (model, context, k); Forward/Backward are
// then called once per training step:
//
//	out := eng.Forward()          // bit-identical to model.Forward(ctx)
//	loss := lossFor(task, out, ctx)
//	loss.Backward()               // seeds readout + final-embedding grads
//	eng.Backward()                // shard backward + replica grad fold
//	opt.Step()
type ShardEngine struct {
	model *GT
	ctx   *Context
	plan  *shardPlan

	reps         []*gtReplica
	repParams    [][]*tensor.Tensor
	masterParams []*tensor.Tensor // non-readout prefix, aligned with repParams

	run *shardRun
}

// NewShardEngine validates the plan and builds the per-µchunk replicas.
// ctx must be a MEGA context (built by NewMegaContext*); the engine always
// uses the staged attention pipeline, which is bit-identical to the fused
// one.
func NewShardEngine(m *GT, ctx *Context, workers int) (*ShardEngine, error) {
	plan, err := buildShardPlan(ctx, workers, m.cfg.Dim, len(m.layers), m.cfg.Heads)
	if err != nil {
		return nil, err
	}
	e := &ShardEngine{model: m, ctx: ctx, plan: plan}
	for j := 0; j < shardChunks; j++ {
		rep, params := m.replica()
		e.reps = append(e.reps, rep)
		e.repParams = append(e.repParams, params)
	}
	all := m.Params()
	e.masterParams = all[:len(all)-len(m.readout.Params())]
	if len(e.masterParams) != len(e.repParams[0]) {
		return nil, fmt.Errorf("models: shard replica has %d params, master %d",
			len(e.repParams[0]), len(e.masterParams))
	}
	return e, nil
}

// buildShardPlan derives the static chunking, ownership, and messaging
// schedule for ctx at the given worker count.
func buildShardPlan(ctx *Context, workers, dim, layers, heads int) (*shardPlan, error) {
	if ctx.posToNode == nil {
		return nil, fmt.Errorf("%w: shard engine requires a MEGA context", ErrUnshardable)
	}
	if workers < 1 {
		return nil, fmt.Errorf("models: shard workers %d < 1", workers)
	}
	if workers > shardChunks || shardChunks%workers != 0 {
		return nil, fmt.Errorf("models: shard workers %d must divide %d", workers, shardChunks)
	}
	L := ctx.NumRows
	if L < shardChunks {
		return nil, fmt.Errorf("%w: path length %d shorter than %d chunks", ErrUnshardable, L, shardChunks)
	}
	omega := ctx.maxWindow
	if omega < 1 {
		omega = 1
	}
	p := &shardPlan{
		workers: workers, dim: dim, layers: layers, heads: heads,
		L: L, omega: omega,
		edgeIdx: ctx.EdgeIdx,
	}
	// Ceil-division µchunk bounds: ub[j] = ⌈j·L/C⌉ is exactly the partition
	// induced by mcOfRow(r) = r·C/L, and worker bounds at k | C refine it.
	p.ub = make([]int, shardChunks+1)
	for j := 0; j <= shardChunks; j++ {
		p.ub[j] = (j*L + shardChunks - 1) / shardChunks
	}
	p.wb = make([]int, workers+1)
	per := shardChunks / workers
	for w := 0; w <= workers; w++ {
		p.wb[w] = p.ub[w*per]
	}
	p.mcW = make([]int, shardChunks)
	p.wMCs = make([][]int, workers)
	for j := 0; j < shardChunks; j++ {
		w := j / per
		p.mcW[j] = w
		p.wMCs[w] = append(p.wMCs[w], j)
		if p.ub[j+1]-p.ub[j] < omega {
			return nil, fmt.Errorf("%w: window %d exceeds chunk %d length %d (path %d)",
				ErrUnshardable, omega, j, p.ub[j+1]-p.ub[j], L)
		}
	}

	// Pair assignment: a pair lives with its receiver's µchunk, so each
	// receiver's softmax group is complete within one tape and local pair
	// lists (ascending global id) preserve the kernels' accumulation order.
	nPairs := len(ctx.RecvIdx)
	p.pairMC = make([]int32, nPairs)
	p.pairRow = make([]int32, nPairs)
	mcPairs := make([][]int32, shardChunks)
	for pp := 0; pp < nPairs; pp++ {
		j := p.mcOfRow(int(ctx.RecvIdx[pp]))
		p.pairMC[pp] = int32(j)
		p.pairRow[pp] = int32(len(mcPairs[j]))
		mcPairs[j] = append(mcPairs[j], int32(pp))
	}

	// Edge ownership: the µchunk of the first referencing pair; edges no
	// pair references are spread by index (they generate no traffic).
	p.edgeOwner = make([]int32, ctx.NumEdges)
	for e := range p.edgeOwner {
		p.edgeOwner[e] = -1
	}
	edgeRefPairs := make([][]int32, ctx.NumEdges)
	for pp := 0; pp < nPairs; pp++ {
		e := ctx.EdgeIdx[pp]
		if p.edgeOwner[e] < 0 {
			p.edgeOwner[e] = p.pairMC[pp]
		}
		edgeRefPairs[e] = append(edgeRefPairs[e], int32(pp))
	}
	for e := range p.edgeOwner {
		if p.edgeOwner[e] < 0 {
			p.edgeOwner[e] = int32(e * shardChunks / ctx.NumEdges)
		}
	}
	p.edgeRefWorkers = make([][]int, ctx.NumEdges)
	p.edgeRefMCs = make([][]int, ctx.NumEdges)
	for e, refs := range edgeRefPairs {
		var seenMC [shardChunks]bool
		for _, pp := range refs {
			seenMC[p.pairMC[pp]] = true
		}
		var seenW [shardChunks]bool
		for j := 0; j < shardChunks; j++ {
			if seenMC[j] {
				p.edgeRefMCs[e] = append(p.edgeRefMCs[e], j)
				if !seenW[p.mcW[j]] {
					seenW[p.mcW[j]] = true
					p.edgeRefWorkers[e] = append(p.edgeRefWorkers[e], p.mcW[j])
				}
			}
		}
	}

	// Per-µchunk shards: extended ranges, local contexts, edge tables.
	for j := 0; j < shardChunks; j++ {
		mc := &mcShard{j: j, lo: p.ub[j], hi: p.ub[j+1]}
		mc.extLo, mc.extHi = mc.lo, mc.hi
		for _, pp := range mcPairs[j] {
			for _, rr := range [2]int32{ctx.RecvIdx[pp], ctx.SendIdx[pp]} {
				if int(rr) < mc.extLo {
					mc.extLo = int(rr)
				}
				if int(rr) >= mc.extHi {
					mc.extHi = int(rr) + 1
				}
			}
		}
		// Pairs stay within the band window, so the extended range must sit
		// inside the adjacent µchunks; anything else is a plan bug.
		adjLo, adjHi := 0, L
		if j > 0 {
			adjLo = p.ub[j-1]
		}
		if j < shardChunks-1 {
			adjHi = p.ub[j+2]
		}
		if mc.extLo < adjLo || mc.extHi > adjHi {
			return nil, fmt.Errorf("models: chunk %d extended range [%d,%d) escapes adjacency [%d,%d)",
				j, mc.extLo, mc.extHi, adjLo, adjHi)
		}
		mc.pairs = mcPairs[j]
		// Local edge table: edges referenced by this µchunk's pairs plus
		// the edges it owns, ascending global id.
		inLocal := make(map[int32]bool)
		for _, pp := range mc.pairs {
			inLocal[ctx.EdgeIdx[pp]] = true
		}
		for e := int32(0); int(e) < ctx.NumEdges; e++ {
			if p.edgeOwner[e] == int32(j) {
				mc.ownEdges = append(mc.ownEdges, e)
				inLocal[e] = true
			}
		}
		mc.edgeLocal = make(map[int32]int, len(inLocal))
		for e := int32(0); int(e) < ctx.NumEdges; e++ {
			if inLocal[e] {
				mc.edgeLocal[e] = len(mc.localEdges)
				mc.localEdges = append(mc.localEdges, e)
			}
		}
		mc.nodeIDs = ctx.NodeTypeIDs[mc.lo:mc.hi]
		mc.edgeTypes = make([]int32, len(mc.localEdges))
		for i, e := range mc.localEdges {
			mc.edgeTypes[i] = ctx.EdgeTypeIDs[e]
		}
		// Localised context for the A1 (attention + node stream) tape.
		lctx := &Context{
			NumRows:  mc.extHi - mc.extLo,
			NumEdges: len(mc.localEdges),
			RecvIdx:  make([]int32, len(mc.pairs)),
			SendIdx:  make([]int32, len(mc.pairs)),
			EdgeIdx:  make([]int32, len(mc.pairs)),
		}
		for i, pp := range mc.pairs {
			lctx.RecvIdx[i] = ctx.RecvIdx[pp] - int32(mc.extLo)
			lctx.SendIdx[i] = ctx.SendIdx[pp] - int32(mc.extLo)
			lctx.EdgeIdx[i] = int32(mc.edgeLocal[ctx.EdgeIdx[pp]])
		}
		mc.lctx = lctx
		p.mcs = append(p.mcs, mc)
	}
	// Owner-side fold plan: all referencing pairs of owned edges, ascending
	// global pair id — the single engine's EdgeMean row order.
	ownIdx := make([]map[int32]int32, shardChunks)
	for j, mc := range p.mcs {
		ownIdx[j] = make(map[int32]int32, len(mc.ownEdges))
		for i, e := range mc.ownEdges {
			ownIdx[j][e] = int32(i)
		}
	}
	for pp := 0; pp < nPairs; pp++ {
		e := ctx.EdgeIdx[pp]
		jo := int(p.edgeOwner[e])
		mc := p.mcs[jo]
		mc.foldPairs = append(mc.foldPairs, int32(pp))
		mc.foldSeg = append(mc.foldSeg, ownIdx[jo][e])
	}

	// Duplicate groups from the node-slot map, ordered by first member row.
	slotRows := make(map[int32][]int32)
	var slotOrder []int32
	for r := 0; r < L; r++ {
		s := ctx.posToNode[r]
		if _, ok := slotRows[s]; !ok {
			slotOrder = append(slotOrder, s)
		}
		slotRows[s] = append(slotRows[s], int32(r))
	}
	p.rowGroup = make([]int32, L)
	for r := range p.rowGroup {
		p.rowGroup[r] = -1
	}
	for _, s := range slotOrder {
		rows := slotRows[s]
		if len(rows) < 2 {
			continue
		}
		g := &dupGroup{
			members:  rows,
			inv:      1 / float64(len(rows)),
			ownerW:   p.wOfRow(int(rows[0])),
			byWorker: make(map[int][]int32),
		}
		var seenW [shardChunks]bool
		for _, rr := range rows {
			w := p.wOfRow(int(rr))
			if !seenW[w] {
				seenW[w] = true
			}
			g.byWorker[w] = append(g.byWorker[w], rr)
		}
		for w := 0; w < workers; w++ {
			if seenW[w] {
				g.workers = append(g.workers, w)
			}
		}
		for _, rr := range rows {
			p.rowGroup[rr] = int32(len(p.groups))
		}
		p.groups = append(p.groups, g)
	}
	p.syncActive = len(p.groups) > 0

	// Per-worker send schedules and edge/µchunk holder lists, ascending
	// edge id for a deterministic schedule.
	p.wEdgeSend = make([][]edgeSendPlan, workers)
	p.wEdgeGradSend = make([][]edgeGradSendPlan, workers)
	p.wLocalEdges = make([][]localEdgePlan, workers)
	holders := make([][]int, ctx.NumEdges) // edge → µchunks with it in localEdges
	for j, mc := range p.mcs {
		for _, e := range mc.localEdges {
			holders[e] = append(holders[e], j)
		}
	}
	for e := int32(0); int(e) < ctx.NumEdges; e++ {
		ownerW := p.mcW[p.edgeOwner[e]]
		for _, w := range p.edgeRefWorkers[e] {
			if w == ownerW {
				continue
			}
			var pairs []int32
			for _, pp := range edgeRefPairs[e] {
				if p.mcW[p.pairMC[pp]] == w {
					pairs = append(pairs, pp)
				}
			}
			var mcs []int
			for _, j := range p.edgeRefMCs[e] {
				if p.mcW[j] == w {
					mcs = append(mcs, j)
				}
			}
			p.wEdgeSend[w] = append(p.wEdgeSend[w], edgeSendPlan{edge: e, ownerW: ownerW, pairs: pairs})
			p.wEdgeGradSend[w] = append(p.wEdgeGradSend[w], edgeGradSendPlan{edge: e, ownerW: ownerW, mcs: mcs})
		}
		byW := make(map[int][]int)
		for _, j := range holders[e] {
			byW[p.mcW[j]] = append(byW[p.mcW[j]], j)
		}
		for w := 0; w < workers; w++ {
			if mcs := byW[w]; len(mcs) > 0 {
				p.wLocalEdges[w] = append(p.wLocalEdges[w], localEdgePlan{edge: e, mcs: mcs})
			}
		}
	}

	// Exact per-worker incoming message counts per wave (channel capacity:
	// with every send buffered, workers can never deadlock on a send).
	p.fwdCap = make([]int, workers)
	p.bwdCap = make([]int, workers)
	for w := 0; w < workers; w++ {
		haloIn := 0
		if w > 0 {
			haloIn++
		}
		if w < workers-1 {
			haloIn++
		}
		syncFoldIn, syncBcastIn := 0, 0
		for _, g := range p.groups {
			if g.ownerW == w {
				syncFoldIn += len(g.workers) - 1
			} else if len(g.byWorker[w]) > 0 {
				syncBcastIn++
			}
		}
		edgeFoldIn := 0
		for _, j := range p.wMCs[w] {
			for _, e := range p.mcs[j].ownEdges {
				for _, rw := range p.edgeRefWorkers[e] {
					if rw != w {
						edgeFoldIn++
					}
				}
			}
		}
		edgeBcastIn := len(p.wEdgeSend[w])
		gradHaloIn := 0
		if w > 0 {
			last := p.wMCs[w-1][len(p.wMCs[w-1])-1]
			if p.mcs[last].extHi > p.wb[w] {
				gradHaloIn++
			}
		}
		if w < workers-1 {
			first := p.wMCs[w+1][0]
			if p.mcs[first].extLo < p.wb[w+1] {
				gradHaloIn++
			}
		}
		p.fwdCap[w] = layers * (haloIn + syncFoldIn + syncBcastIn + edgeFoldIn + edgeBcastIn)
		p.bwdCap[w] = layers*(syncFoldIn+syncBcastIn+edgeFoldIn+gradHaloIn) + (layers-1)*edgeBcastIn
	}
	return p, nil
}

// Message phases. Keys are unique per (phase, layer, id, sender).
const (
	phHalo int8 = iota
	phSyncFold
	phSyncBcast
	phEdgeFold
	phEdgeBcast
	phGradSyncFold
	phGradSyncBcast
	phGradKF
	phGradHalo
	phGradEdgeFold
)

// ShardKey identifies one exchange message: unique per (phase, layer, id,
// sender). It is the unit of addressing for both the in-process channel
// exchange and a remote transport (internal/dist serialises it verbatim),
// so a message produced on one side of a process boundary is matched by
// the same key on the other.
type ShardKey struct {
	Phase int8
	Layer int16
	ID    int32
	From  int8
}

type shardMsg struct {
	key  ShardKey
	data []float64
}

func mkey(phase int8, layer, id, from int) ShardKey {
	return ShardKey{Phase: phase, Layer: int16(layer), ID: int32(id), From: int8(from)}
}

// ShardLink carries one worker's cross-worker exchange messages when the
// shard workers do not share an address space. Send must deliver data to
// worker `to` under key; Recv must return the payload sent to this worker
// under key (stashing out-of-order arrivals internally). Payloads must be
// preserved bit-for-bit — the engine's bit-identity invariant survives
// serialisation only if the link does not renormalise floats. A returned
// error aborts the worker's wave cleanly (RunShardWorkerForward surfaces
// it); links should fail fast on peer death or deadline rather than block
// forever.
type ShardLink interface {
	Send(to int, key ShardKey, data []float64) error
	Recv(key ShardKey) ([]float64, error)
}

// shardLinkError unwinds a worker whose link failed (peer death, message
// deadline); RunShardWorkerForward converts it back into the link's error.
type shardLinkError struct{ err error }

// mcTape holds one µchunk's per-layer autograd tapes: the A1 tape
// (attention + node stream over the extended range) and, for owner
// µchunks, the A2 tape (edge fold + edge stream over owned edges).
type mcTape struct {
	hExt, eRep, kmod, hOutPre *tensor.Tensor
	kf, eOwn, eOut            *tensor.Tensor
}

// shardRun is the per-step mutable state of one Forward/Backward pair.
type shardRun struct {
	eng *ShardEngine

	// link, when non-nil, replaces the in-process channels: this run hosts
	// exactly one worker and every cross-worker message flows through the
	// link (a remote transport). The channel/stash fields are unused then.
	link ShardLink

	ch       []chan shardMsg
	stash    []map[ShardKey][]float64
	failed   chan struct{}
	failOnce sync.Once
	panicVal any

	hw        [][]float64 // per worker: extended h buffer [bufLo, bufHi)
	eLoc      [][]float64 // per µchunk: current e rows for localEdges
	finalH    []float64   // L×d final embeddings (disjoint worker writes)
	tapes     [][]mcTape  // [µchunk][layer]
	enc0h     []*tensor.Tensor
	enc0e     []*tensor.Tensor
	eGradSeed [][]float64 // per µchunk: d e(ℓ) rows for owned edges

	hFinalLeaf *tensor.Tensor

	haloMsgs, haloBytes       int64
	syncMsgs, syncBytes       int64
	edgeMsgs, edgeBytes       int64
	collectMsgs, collectBytes int64
	bwdMsgs, bwdBytes         int64
	fwdNs, bwdNs              []int64
}

func newShardRun(e *ShardEngine) *shardRun {
	p := e.plan
	r := &shardRun{
		eng:       e,
		ch:        make([]chan shardMsg, p.workers),
		stash:     make([]map[ShardKey][]float64, p.workers),
		failed:    make(chan struct{}),
		hw:        make([][]float64, p.workers),
		eLoc:      make([][]float64, shardChunks),
		finalH:    make([]float64, p.L*p.dim),
		tapes:     make([][]mcTape, shardChunks),
		enc0h:     make([]*tensor.Tensor, shardChunks),
		enc0e:     make([]*tensor.Tensor, shardChunks),
		eGradSeed: make([][]float64, shardChunks),
		fwdNs:     make([]int64, p.workers),
		bwdNs:     make([]int64, p.workers),
	}
	for w := 0; w < p.workers; w++ {
		cap := p.fwdCap[w]
		if p.bwdCap[w] > cap {
			cap = p.bwdCap[w]
		}
		r.ch[w] = make(chan shardMsg, cap)
		r.stash[w] = make(map[ShardKey][]float64)
		bufLo, bufHi := r.bufRange(w)
		r.hw[w] = make([]float64, (bufHi-bufLo)*p.dim)
	}
	for j := 0; j < shardChunks; j++ {
		mc := p.mcs[j]
		r.eLoc[j] = make([]float64, len(mc.localEdges)*p.dim)
		r.tapes[j] = make([]mcTape, p.layers)
		r.eGradSeed[j] = make([]float64, len(mc.ownEdges)*p.dim)
	}
	return r
}

// bufRange is worker w's extended h-buffer row range: its own rows plus ω
// halo rows on each interior side.
func (r *shardRun) bufRange(w int) (int, int) {
	p := r.eng.plan
	lo := p.wb[w] - p.omega
	if lo < 0 {
		lo = 0
	}
	hi := p.wb[w+1] + p.omega
	if hi > p.L {
		hi = p.L
	}
	return lo, hi
}

func (r *shardRun) send(to int, key ShardKey, data []float64, msgs, bytes *int64) {
	atomic.AddInt64(msgs, 1)
	atomic.AddInt64(bytes, int64(len(data)*8))
	if r.link != nil {
		if err := r.link.Send(to, key, data); err != nil {
			panic(&shardLinkError{err})
		}
		return
	}
	select {
	case r.ch[to] <- shardMsg{key: key, data: data}:
	case <-r.failed:
		panic(errShardAborted)
	}
}

func (r *shardRun) recv(w int, key ShardKey) []float64 {
	if r.link != nil {
		data, err := r.link.Recv(key)
		if err != nil {
			panic(&shardLinkError{err})
		}
		return data
	}
	if d, ok := r.stash[w][key]; ok {
		delete(r.stash[w], key)
		return d
	}
	for {
		select {
		case m := <-r.ch[w]:
			if m.key == key {
				return m.data
			}
			r.stash[w][m.key] = m.data
		case <-r.failed:
			panic(errShardAborted)
		}
	}
}

// guard times a worker wave and converts peer-abort panics into a clean
// exit; a genuine panic is recorded once and re-raised on the caller.
func (r *shardRun) guard(ns *int64) func() {
	start := time.Now()
	return func() {
		atomic.StoreInt64(ns, int64(time.Since(start)))
		if rec := recover(); rec != nil && rec != errShardAborted {
			r.failOnce.Do(func() {
				r.panicVal = rec
				close(r.failed)
			})
		}
	}
}

func (r *shardRun) rethrow() {
	if r.panicVal != nil {
		panic(r.panicVal)
	}
}

// Forward runs the sharded forward pass and returns the model output,
// bit-identical to m.Forward(ctx). The returned tensor heads the root tape
// (final embeddings → readout); calling loss.Backward() on a loss built
// from it seeds both the master readout gradients and the final-embedding
// gradients that Backward distributes to the workers.
func (e *ShardEngine) Forward() *tensor.Tensor {
	for _, ps := range e.repParams {
		for _, p := range ps {
			p.Grad = nil
		}
	}
	run := newShardRun(e)
	e.run = run
	// Best-effort budget accounting for the worker goroutines: nested
	// kernels still admit their own helpers through the same bucket.
	_, release := compute.Borrow(e.plan.workers - 1)
	var wg sync.WaitGroup
	for w := 0; w < e.plan.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer run.guard(&run.fwdNs[w])()
			run.workerForward(w)
		}(w)
	}
	wg.Wait()
	release()
	run.rethrow()

	// Root tape: exactly the single engine's readout arithmetic over the
	// collected final embeddings.
	ctx := e.ctx
	hFinal := tensor.New(e.plan.L, e.plan.dim, run.finalH).RequireGrad()
	run.hFinalLeaf = hFinal
	nodes := tensor.SegmentMean(hFinal, ctx.posToNode, ctx.numNodeSlots)
	pooled := tensor.SegmentMean(nodes, ctx.nodeGraph, ctx.NumGraphs)
	return e.model.readout.Forward(pooled)
}

// Backward runs the sharded backward pass (the caller must have run
// loss.Backward() on a loss derived from Forward's output first) and folds
// every µchunk replica's parameter gradients into the master parameters.
func (e *ShardEngine) Backward() {
	run := e.run
	if run == nil || run.hFinalLeaf == nil {
		panic("models: ShardEngine.Backward before Forward")
	}
	if run.hFinalLeaf.Grad == nil {
		run.hFinalLeaf.Grad = make([]float64, e.plan.L*e.plan.dim)
	}
	_, release := compute.Borrow(e.plan.workers - 1)
	var wg sync.WaitGroup
	for w := 0; w < e.plan.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer run.guard(&run.bwdNs[w])()
			run.workerBackward(w)
		}(w)
	}
	wg.Wait()
	release()
	run.rethrow()

	// Fold replica gradients into the masters, ascending µchunk, allocating
	// a master gradient only when some replica produced one — parameters
	// the loss cannot reach (the last layer's edge stream) keep nil grads,
	// so the optimiser skips them exactly as it does for the single engine.
	for pi, mp := range e.masterParams {
		for _, ps := range e.repParams {
			g := ps[pi].Grad
			if g == nil {
				continue
			}
			if mp.Grad == nil {
				mp.Grad = make([]float64, len(mp.Data))
			}
			for i := range g {
				mp.Grad[i] += g[i]
			}
		}
	}
}

// FinalEmbeddings returns the final-layer path embeddings (NumRows×dim,
// row-major) collected by the last Forward. The returned slice is the
// engine's buffer; callers must not mutate it.
func (e *ShardEngine) FinalEmbeddings() []float64 {
	if e.run == nil {
		return nil
	}
	return e.run.finalH
}

// WorkerBounds returns the worker row boundaries: worker w owns path rows
// [b[w], b[w+1]).
func (e *ShardEngine) WorkerBounds() []int {
	return append([]int(nil), e.plan.wb...)
}

// Stats reports the traffic and timing of the current run (valid after
// Forward returns; backward fields populate after Backward).
func (e *ShardEngine) Stats() ShardStats {
	r := e.run
	s := ShardStats{Workers: e.plan.workers}
	if r == nil {
		return s
	}
	s.HaloMessages = atomic.LoadInt64(&r.haloMsgs)
	s.HaloBytes = atomic.LoadInt64(&r.haloBytes)
	s.SyncMessages = atomic.LoadInt64(&r.syncMsgs)
	s.SyncBytes = atomic.LoadInt64(&r.syncBytes)
	s.EdgeMessages = atomic.LoadInt64(&r.edgeMsgs)
	s.EdgeBytes = atomic.LoadInt64(&r.edgeBytes)
	s.CollectMessages = atomic.LoadInt64(&r.collectMsgs)
	s.CollectBytes = atomic.LoadInt64(&r.collectBytes)
	s.BackwardMessages = atomic.LoadInt64(&r.bwdMsgs)
	s.BackwardBytes = atomic.LoadInt64(&r.bwdBytes)
	s.ForwardNs = append([]int64(nil), r.fwdNs...)
	s.BackwardNs = append([]int64(nil), r.bwdNs...)
	return s
}

// workerForward runs worker w's forward wave.
func (r *shardRun) workerForward(w int) {
	e := r.eng
	p := e.plan
	d := p.dim
	lo, hi := p.wb[w], p.wb[w+1]
	bufLo, _ := r.bufRange(w)
	hw := r.hw[w]
	row := func(rr int) []float64 {
		off := (rr - bufLo) * d
		return hw[off : off+d]
	}
	copyRows := func(a, b int) []float64 {
		out := make([]float64, (b-a)*d)
		copy(out, hw[(a-bufLo)*d:(b-bufLo)*d])
		return out
	}
	// hOutPre value of an own row in the current layer's tapes.
	preRow := func(rr, l int) []float64 {
		j := p.mcOfRow(rr)
		t := &r.tapes[j][l]
		off := (rr - p.mcs[j].extLo) * d
		return t.hOutPre.Data[off : off+d]
	}

	// Layer-1 inputs: encoder replicas over own rows / local edges.
	for _, j := range p.wMCs[w] {
		mc := p.mcs[j]
		rep := e.reps[j]
		hEnc := tensor.EmbedRows(rep.encNode.Table, mc.nodeIDs)
		r.enc0h[j] = hEnc
		copy(hw[(mc.lo-bufLo)*d:(mc.hi-bufLo)*d], hEnc.Data)
		eEnc := tensor.EmbedRows(rep.encEdge.Table, mc.edgeTypes)
		r.enc0e[j] = eEnc
		copy(r.eLoc[j], eEnc.Data)
	}

	for l := 0; l < p.layers; l++ {
		// Phase 1: dense ω-row halo exchange of the current embeddings.
		if w > 0 {
			r.send(w-1, mkey(phHalo, l, 0, w), copyRows(lo, lo+p.omega), &r.haloMsgs, &r.haloBytes)
		}
		if w < p.workers-1 {
			r.send(w+1, mkey(phHalo, l, 0, w), copyRows(hi-p.omega, hi), &r.haloMsgs, &r.haloBytes)
		}
		if w > 0 {
			copy(hw[(lo-p.omega-bufLo)*d:(lo-bufLo)*d], r.recv(w, mkey(phHalo, l, 0, w-1)))
		}
		if w < p.workers-1 {
			copy(hw[(hi-bufLo)*d:(hi+p.omega-bufLo)*d], r.recv(w, mkey(phHalo, l, 0, w+1)))
		}

		// Phase 2: A1 tape per µchunk — attention + node stream over the
		// extended range. Halo-row outputs are garbage and discarded; every
		// op is row-local so they cannot contaminate own rows.
		for _, j := range p.wMCs[w] {
			mc := p.mcs[j]
			ext := make([]float64, (mc.extHi-mc.extLo)*d)
			copy(ext, hw[(mc.extLo-bufLo)*d:(mc.extHi-bufLo)*d])
			hExt := tensor.New(mc.extHi-mc.extLo, d, ext).RequireGrad()
			eRep := tensor.New(len(mc.localEdges), d, append([]float64(nil), r.eLoc[j]...)).RequireGrad()
			lay := e.reps[j].layers[l]
			att, kmod := lay.forwardAttnStaged(mc.lctx, hExt, eRep, p.heads)
			hOutPre := stream[*tensor.Tensor](pass64{mc.lctx}, hExt, att, lay.o, lay.ffnH1, lay.ffnH2, lay.lnH1, lay.lnH2)
			t := &r.tapes[j][l]
			t.hExt, t.eRep, t.kmod, t.hOutPre = hExt, eRep, kmod, hOutPre
		}

		// Phase 3: duplicate-group synchronisation → h(ℓ+1) own rows.
		// Owners fold RAW member rows ascending global row from a zero
		// base and broadcast the mean — SegmentMean's exact arithmetic.
		for gi, g := range p.groups {
			if g.ownerW == w {
				continue
			}
			mine := g.byWorker[w]
			if len(mine) == 0 {
				continue
			}
			data := make([]float64, len(mine)*d)
			for i, rr := range mine {
				copy(data[i*d:(i+1)*d], preRow(int(rr), l))
			}
			r.send(g.ownerW, mkey(phSyncFold, l, gi, w), data, &r.syncMsgs, &r.syncBytes)
		}
		for gi, g := range p.groups {
			if g.ownerW != w {
				continue
			}
			remote := make(map[int][]float64)
			used := make(map[int]int)
			for _, ow := range g.workers {
				if ow != w {
					remote[ow] = r.recv(w, mkey(phSyncFold, l, gi, ow))
				}
			}
			mean := make([]float64, d)
			for _, rr := range g.members {
				var src []float64
				if mw := p.wOfRow(int(rr)); mw == w {
					src = preRow(int(rr), l)
				} else {
					i := used[mw]
					src = remote[mw][i*d : (i+1)*d]
					used[mw] = i + 1
				}
				for c := 0; c < d; c++ {
					mean[c] += src[c]
				}
			}
			for c := range mean {
				mean[c] *= g.inv
			}
			for _, ow := range g.workers {
				if ow != w {
					r.send(ow, mkey(phSyncBcast, l, gi, w),
						append([]float64(nil), mean...), &r.syncMsgs, &r.syncBytes)
				}
			}
			for _, rr := range g.byWorker[w] {
				copy(row(int(rr)), mean)
			}
		}
		for gi, g := range p.groups {
			if g.ownerW == w || len(g.byWorker[w]) == 0 {
				continue
			}
			mean := r.recv(w, mkey(phSyncBcast, l, gi, g.ownerW))
			for _, rr := range g.byWorker[w] {
				copy(row(int(rr)), mean)
			}
		}
		for rr := lo; rr < hi; rr++ {
			if p.rowGroup[rr] >= 0 {
				continue
			}
			src := preRow(rr, l)
			dst := row(rr)
			if p.syncActive {
				// Mirror SegmentMean+Gather on a singleton segment: the
				// zero-base add flushes -0.0 to +0.0 exactly as the kernel
				// does; ×1.0 is the count-1 mean.
				for c := 0; c < d; c++ {
					s := 0.0 + src[c]
					dst[c] = s * 1.0
				}
			} else {
				copy(dst, src)
			}
		}

		// Phase 4: edge fold — referencing workers ship RAW k⊙ê pair rows
		// to each edge's owner, ascending global pair id.
		for _, ef := range p.wEdgeSend[w] {
			data := make([]float64, len(ef.pairs)*d)
			for i, pp := range ef.pairs {
				j, rw := int(p.pairMC[pp]), int(p.pairRow[pp])
				copy(data[i*d:(i+1)*d], r.tapes[j][l].kmod.Data[rw*d:(rw+1)*d])
			}
			r.send(ef.ownerW, mkey(phEdgeFold, l, int(ef.edge), w), data, &r.edgeMsgs, &r.edgeBytes)
		}
		// Phase 5: A2 tape per owner µchunk — assemble the fold matrix in
		// ascending global pair order, SegmentMean per owned edge (the
		// single engine's EdgeMean bit for bit), then the edge stream.
		for _, j := range p.wMCs[w] {
			mc := p.mcs[j]
			if len(mc.ownEdges) == 0 {
				continue
			}
			kf := make([]float64, len(mc.foldPairs)*d)
			remote := make(map[[2]int32][]float64)
			used := make(map[[2]int32]int)
			for i, pp := range mc.foldPairs {
				srcMC := int(p.pairMC[pp])
				if srcW := p.mcW[srcMC]; srcW == w {
					rw := int(p.pairRow[pp])
					copy(kf[i*d:(i+1)*d], r.tapes[srcMC][l].kmod.Data[rw*d:(rw+1)*d])
				} else {
					e := p.edgeIdx[pp]
					rk := [2]int32{e, int32(srcW)}
					data, ok := remote[rk]
					if !ok {
						data = r.recv(w, mkey(phEdgeFold, l, int(e), srcW))
						remote[rk] = data
					}
					ui := used[rk]
					copy(kf[i*d:(i+1)*d], data[ui*d:(ui+1)*d])
					used[rk] = ui + 1
				}
			}
			kfLeaf := tensor.New(len(mc.foldPairs), d, kf).RequireGrad()
			eAvg := tensor.SegmentMean(kfLeaf, mc.foldSeg, len(mc.ownEdges))
			eOwnData := make([]float64, len(mc.ownEdges)*d)
			for i, ee := range mc.ownEdges {
				li := mc.edgeLocal[ee]
				copy(eOwnData[i*d:(i+1)*d], r.eLoc[j][li*d:(li+1)*d])
			}
			eOwn := tensor.New(len(mc.ownEdges), d, eOwnData).RequireGrad()
			lay := e.reps[j].layers[l]
			eOut := stream[*tensor.Tensor](pass64{&Context{}}, eOwn, eAvg, lay.oe, lay.ffnE1, lay.ffnE2, lay.lnE1, lay.lnE2)
			t := &r.tapes[j][l]
			t.kf, t.eOwn, t.eOut = kfLeaf, eOwn, eOut
		}
		// Phase 6: broadcast owned-edge outputs to referencing workers and
		// refresh every local edge table for the next layer.
		for _, j := range p.wMCs[w] {
			mc := p.mcs[j]
			for oi, ee := range mc.ownEdges {
				for _, rw := range p.edgeRefWorkers[ee] {
					if rw == w {
						continue
					}
					out := r.tapes[j][l].eOut.Data[oi*d : (oi+1)*d]
					r.send(rw, mkey(phEdgeBcast, l, int(ee), w),
						append([]float64(nil), out...), &r.edgeMsgs, &r.edgeBytes)
				}
			}
		}
		for _, le := range p.wLocalEdges[w] {
			jo := int(p.edgeOwner[le.edge])
			var src []float64
			if ow := p.mcW[jo]; ow == w {
				oi := -1
				for i, ee := range p.mcs[jo].ownEdges {
					if ee == le.edge {
						oi = i
						break
					}
				}
				src = r.tapes[jo][l].eOut.Data[oi*d : (oi+1)*d]
			} else {
				src = r.recv(w, mkey(phEdgeBcast, l, int(le.edge), ow))
			}
			for _, j := range le.mcs {
				li := p.mcs[j].edgeLocal[le.edge]
				copy(r.eLoc[j][li*d:(li+1)*d], src)
			}
		}
	}

	// Collect: final own rows into the shared output buffer.
	copy(r.finalH[lo*d:hi*d], hw[(lo-bufLo)*d:(hi-bufLo)*d])
	atomic.AddInt64(&r.collectMsgs, 1)
	atomic.AddInt64(&r.collectBytes, int64((hi-lo)*d*8))
}

// gradRows returns t.Grad, or a shared zero buffer when the tape never
// reached t (read-only use).
func gradRows(t *tensor.Tensor) []float64 {
	if t.Grad != nil {
		return t.Grad
	}
	return make([]float64, t.Size())
}

// workerBackward runs worker w's backward wave, mirroring the forward
// phases in reverse with the same owner/raw-row fold discipline.
func (r *shardRun) workerBackward(w int) {
	e := r.eng
	p := e.plan
	d := p.dim
	layers := p.layers
	lo, hi := p.wb[w], p.wb[w+1]
	n := hi - lo

	// gNext holds ∂loss/∂h(ℓ+1) for own rows (post-sync embeddings).
	gNext := make([]float64, n*d)
	copy(gNext, r.hFinalLeaf.Grad[lo*d:hi*d])
	gPre := make([]float64, n*d)

	for l := layers - 1; l >= 0; l-- {
		// Phase 1: duplicate-sync backward — owner folds RAW member grad
		// rows ascending from zero, broadcasts the node grad, every member
		// row gets gnode·inv (GatherRows∘SegmentMean backward, exactly).
		for gi, g := range p.groups {
			if g.ownerW == w {
				continue
			}
			mine := g.byWorker[w]
			if len(mine) == 0 {
				continue
			}
			data := make([]float64, len(mine)*d)
			for i, rr := range mine {
				copy(data[i*d:(i+1)*d], gNext[(int(rr)-lo)*d:(int(rr)-lo+1)*d])
			}
			r.send(g.ownerW, mkey(phGradSyncFold, l, gi, w), data, &r.bwdMsgs, &r.bwdBytes)
		}
		gnodes := make(map[int][]float64)
		for gi, g := range p.groups {
			if g.ownerW != w {
				continue
			}
			remote := make(map[int][]float64)
			used := make(map[int]int)
			for _, ow := range g.workers {
				if ow != w {
					remote[ow] = r.recv(w, mkey(phGradSyncFold, l, gi, ow))
				}
			}
			gnode := make([]float64, d)
			for _, rr := range g.members {
				var src []float64
				if mw := p.wOfRow(int(rr)); mw == w {
					src = gNext[(int(rr)-lo)*d : (int(rr)-lo+1)*d]
				} else {
					i := used[mw]
					src = remote[mw][i*d : (i+1)*d]
					used[mw] = i + 1
				}
				for c := 0; c < d; c++ {
					gnode[c] += src[c]
				}
			}
			for _, ow := range g.workers {
				if ow != w {
					r.send(ow, mkey(phGradSyncBcast, l, gi, w),
						append([]float64(nil), gnode...), &r.bwdMsgs, &r.bwdBytes)
				}
			}
			gnodes[gi] = gnode
		}
		for gi, g := range p.groups {
			if len(g.byWorker[w]) == 0 {
				continue
			}
			gnode := gnodes[gi]
			if gnode == nil {
				gnode = r.recv(w, mkey(phGradSyncBcast, l, gi, g.ownerW))
			}
			for _, rr := range g.byWorker[w] {
				dst := gPre[(int(rr)-lo)*d : (int(rr)-lo+1)*d]
				for c := 0; c < d; c++ {
					dst[c] = 0.0 + gnode[c]*g.inv
				}
			}
		}
		for rr := lo; rr < hi; rr++ {
			if p.rowGroup[rr] >= 0 {
				continue
			}
			src := gNext[(rr-lo)*d : (rr-lo+1)*d]
			dst := gPre[(rr-lo)*d : (rr-lo+1)*d]
			if p.syncActive {
				for c := 0; c < d; c++ {
					s := 0.0 + src[c]
					dst[c] = 0.0 + s*1.0
				}
			} else {
				copy(dst, src)
			}
		}

		// Phase 2: A2 backward (skipped at the last layer, whose edge
		// stream the loss cannot reach — matching the single engine, where
		// those parameters receive no gradient), then route the fold-matrix
		// grads back to each pair's µchunk as kmod pre-seeds.
		if l < layers-1 {
			for _, j := range p.wMCs[w] {
				mc := p.mcs[j]
				if len(mc.ownEdges) == 0 {
					continue
				}
				t := &r.tapes[j][l]
				t.eOut.Grad = append([]float64(nil), r.eGradSeed[j]...)
				tensor.BackwardFrom(t.eOut)
				kfGrad := gradRows(t.kf)
				type route struct {
					rows []float64
				}
				pend := make(map[[2]int32]*route)
				var order [][2]int32
				for i, pp := range mc.foldPairs {
					srcMC := int(p.pairMC[pp])
					grow := kfGrad[i*d : (i+1)*d]
					if srcW := p.mcW[srcMC]; srcW == w {
						kmod := r.tapes[srcMC][l].kmod
						if kmod.Grad == nil {
							kmod.Grad = make([]float64, kmod.Size())
						}
						rw := int(p.pairRow[pp])
						dst := kmod.Grad[rw*d : (rw+1)*d]
						for c := 0; c < d; c++ {
							dst[c] += grow[c]
						}
					} else {
						rk := [2]int32{p.edgeIdx[pp], int32(srcW)}
						rt := pend[rk]
						if rt == nil {
							rt = &route{}
							pend[rk] = rt
							order = append(order, rk)
						}
						rt.rows = append(rt.rows, grow...)
					}
				}
				for _, rk := range order {
					r.send(int(rk[1]), mkey(phGradKF, l, int(rk[0]), w),
						pend[rk].rows, &r.bwdMsgs, &r.bwdBytes)
				}
			}
			for _, ef := range p.wEdgeSend[w] {
				data := r.recv(w, mkey(phGradKF, l, int(ef.edge), ef.ownerW))
				for i, pp := range ef.pairs {
					j, rw := int(p.pairMC[pp]), int(p.pairRow[pp])
					kmod := r.tapes[j][l].kmod
					if kmod.Grad == nil {
						kmod.Grad = make([]float64, kmod.Size())
					}
					dst := kmod.Grad[rw*d : (rw+1)*d]
					for c := 0; c < d; c++ {
						dst[c] += data[i*d+c]
					}
				}
			}
		}

		// Phase 3: A1 backward per µchunk, with kmod pre-seeded.
		for _, j := range p.wMCs[w] {
			mc := p.mcs[j]
			t := &r.tapes[j][l]
			t.hOutPre.Grad = make([]float64, t.hOutPre.Size())
			copy(t.hOutPre.Grad[(mc.lo-mc.extLo)*d:(mc.hi-mc.extLo)*d], gPre[(mc.lo-lo)*d:(mc.hi-lo)*d])
			tensor.BackwardFrom(t.hOutPre)
		}

		// Phase 4: halo-gradient exchange over the ACTUAL extended ranges
		// (never dense ω rows — structural zeros would flip -0.0 signs),
		// then fold h(ℓ) grads per own row, ascending contributing µchunk.
		if w > 0 {
			mc := p.mcs[p.wMCs[w][0]]
			if mc.extLo < lo {
				g := gradRows(r.tapes[mc.j][l].hExt)
				r.send(w-1, mkey(phGradHalo, l, 0, w),
					append([]float64(nil), g[:(lo-mc.extLo)*d]...), &r.bwdMsgs, &r.bwdBytes)
			}
		}
		if w < p.workers-1 {
			mc := p.mcs[p.wMCs[w][len(p.wMCs[w])-1]]
			if mc.extHi > hi {
				g := gradRows(r.tapes[mc.j][l].hExt)
				off := (hi - mc.extLo) * d
				r.send(w+1, mkey(phGradHalo, l, 0, w),
					append([]float64(nil), g[off:off+(mc.extHi-hi)*d]...), &r.bwdMsgs, &r.bwdBytes)
			}
		}
		var fromLeft, fromRight []float64
		if w > 0 {
			last := p.wMCs[w-1][len(p.wMCs[w-1])-1]
			if p.mcs[last].extHi > lo {
				fromLeft = r.recv(w, mkey(phGradHalo, l, 0, w-1)) // rows [lo, extHi(last))
			}
		}
		var rightBase int
		if w < p.workers-1 {
			first := p.wMCs[w+1][0]
			if p.mcs[first].extLo < hi {
				fromRight = r.recv(w, mkey(phGradHalo, l, 0, w+1)) // rows [extLo(first), hi)
				rightBase = p.mcs[first].extLo
			}
		}
		gH := make([]float64, n*d)
		for rr := lo; rr < hi; rr++ {
			j := p.mcOfRow(rr)
			dst := gH[(rr-lo)*d : (rr-lo+1)*d]
			for _, jq := range [3]int{j - 1, j, j + 1} {
				if jq < 0 || jq >= shardChunks {
					continue
				}
				mq := p.mcs[jq]
				if rr < mq.extLo || rr >= mq.extHi {
					continue
				}
				var src []float64
				switch {
				case p.mcW[jq] == w:
					src = gradRows(r.tapes[jq][l].hExt)[(rr-mq.extLo)*d:]
				case jq < j:
					src = fromLeft[(rr-lo)*d:]
				default:
					src = fromRight[(rr-rightBase)*d:]
				}
				for c := 0; c < d; c++ {
					dst[c] += src[c]
				}
			}
		}

		// Phase 5: edge-gradient fold — referencing µchunks' feature-grad
		// rows ascending µchunk, then the owner's A2 residual contribution,
		// seeding the previous layer's edge stream (or the encoder at ℓ=1).
		for _, eg := range p.wEdgeGradSend[w] {
			data := make([]float64, len(eg.mcs)*d)
			for i, j := range eg.mcs {
				li := p.mcs[j].edgeLocal[eg.edge]
				g := gradRows(r.tapes[j][l].eRep)
				copy(data[i*d:(i+1)*d], g[li*d:(li+1)*d])
			}
			r.send(eg.ownerW, mkey(phGradEdgeFold, l, int(eg.edge), w), data, &r.bwdMsgs, &r.bwdBytes)
		}
		for _, j := range p.wMCs[w] {
			mc := p.mcs[j]
			seed := r.eGradSeed[j]
			for i := range seed {
				seed[i] = 0
			}
			remote := make(map[[2]int32][]float64)
			used := make(map[[2]int32]int)
			for oi, ee := range mc.ownEdges {
				dst := seed[oi*d : (oi+1)*d]
				for _, jq := range p.edgeRefMCs[ee] {
					var src []float64
					if wq := p.mcW[jq]; wq == w {
						li := p.mcs[jq].edgeLocal[ee]
						src = gradRows(r.tapes[jq][l].eRep)[li*d:]
					} else {
						rk := [2]int32{ee, int32(wq)}
						data, ok := remote[rk]
						if !ok {
							data = r.recv(w, mkey(phGradEdgeFold, l, int(ee), wq))
							remote[rk] = data
						}
						ui := used[rk]
						src = data[ui*d:]
						used[rk] = ui + 1
					}
					for c := 0; c < d; c++ {
						dst[c] += src[c]
					}
				}
				if l < layers-1 && len(mc.ownEdges) > 0 {
					src := gradRows(r.tapes[j][l].eOwn)[oi*d:]
					for c := 0; c < d; c++ {
						dst[c] += src[c]
					}
				}
			}
		}

		gNext, gH = gH, gNext
		_ = gH
	}

	// Encoder backward: gNext now carries ∂loss/∂h(1); the edge seeds
	// carry ∂loss/∂e(1) at each owner µchunk.
	for _, j := range p.wMCs[w] {
		mc := p.mcs[j]
		hEnc := r.enc0h[j]
		hEnc.Grad = append([]float64(nil), gNext[(mc.lo-lo)*d:(mc.hi-lo)*d]...)
		tensor.BackwardFrom(hEnc)
		eEnc := r.enc0e[j]
		eEnc.Grad = make([]float64, eEnc.Size())
		for oi, ee := range mc.ownEdges {
			li := mc.edgeLocal[ee]
			copy(eEnc.Grad[li*d:(li+1)*d], r.eGradSeed[j][oi*d:(oi+1)*d])
		}
		tensor.BackwardFrom(eEnc)
	}
}

// ShardWorkerResult is one worker's share of a distributed forward: its
// owned final-embedding rows and the traffic it originated (send-side
// counters only, so summing the k results reproduces the in-process
// engine's totals exactly).
type ShardWorkerResult struct {
	Lo, Hi  int       // owned path-row range [Lo, Hi)
	PathLen int       // total path rows L across all workers
	Rows    []float64 // (Hi-Lo)×dim row-major final embeddings
	Stats   ShardStats
}

// RunShardWorkerForward runs worker w's forward wave of a k-worker shard
// plan in this process, exchanging cross-worker messages over link. It is
// the process-boundary counterpart of ShardEngine.Forward: when every
// worker of the plan runs somewhere (any mix of processes) over a link
// that preserves payload bits, the concatenated Rows are bit-identical to
// the in-process engine's final embeddings, and ReadoutFromFinal on the
// assembled rows reproduces m.Forward(ctx) exactly.
//
// A link error (peer death, deadline) aborts the wave and is returned;
// any other panic inside the wave is also converted to an error so a
// malformed job cannot kill a worker process.
func RunShardWorkerForward(m *GT, ctx *Context, workers, w int, link ShardLink) (ShardWorkerResult, error) {
	if w < 0 || w >= workers {
		return ShardWorkerResult{}, fmt.Errorf("models: shard worker index %d out of range [0,%d)", w, workers)
	}
	eng, err := NewShardEngine(m, ctx, workers)
	if err != nil {
		return ShardWorkerResult{}, err
	}
	run := newShardRun(eng)
	run.link = link
	eng.run = run
	err = func() (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				if le, ok := rec.(*shardLinkError); ok {
					err = le.err
				} else {
					err = fmt.Errorf("models: shard worker %d/%d panicked: %v", w, workers, rec)
				}
			}
		}()
		start := time.Now()
		run.workerForward(w)
		atomic.StoreInt64(&run.fwdNs[w], int64(time.Since(start)))
		return nil
	}()
	if err != nil {
		return ShardWorkerResult{}, err
	}
	lo, hi := eng.plan.wb[w], eng.plan.wb[w+1]
	d := eng.plan.dim
	return ShardWorkerResult{
		Lo:      lo,
		Hi:      hi,
		PathLen: eng.plan.L,
		Rows:    append([]float64(nil), run.finalH[lo*d:hi*d]...),
		Stats:   eng.Stats(),
	}, nil
}

// ReadoutFromFinal applies the readout tail — SegmentMean over node slots,
// SegmentMean over member graphs, readout head — to externally assembled
// final embeddings (NumRows×dim row-major). It is exactly the root tape of
// ShardEngine.Forward, so feeding it the rows collected from a distributed
// run yields output bit-identical to m.Forward(ctx).
func (m *GT) ReadoutFromFinal(ctx *Context, finalH []float64) (*tensor.Tensor, error) {
	if ctx.posToNode == nil {
		return nil, fmt.Errorf("%w: readout tail requires a MEGA context", ErrUnshardable)
	}
	if len(finalH) != ctx.NumRows*m.cfg.Dim {
		return nil, fmt.Errorf("models: final embeddings have %d values, want %d×%d",
			len(finalH), ctx.NumRows, m.cfg.Dim)
	}
	hFinal := tensor.New(ctx.NumRows, m.cfg.Dim, finalH)
	nodes := tensor.SegmentMean(hFinal, ctx.posToNode, ctx.numNodeSlots)
	pooled := tensor.SegmentMean(nodes, ctx.nodeGraph, ctx.NumGraphs)
	return m.readout.Forward(pooled), nil
}
