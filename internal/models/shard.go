package models

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mega/internal/compute"
	"mega/internal/tensor"
)

// This file implements the shard engine, the traffic witness of the §IV-B6
// analysis: the MEGA path's working rows are split into k contiguous
// worker chunks with ω-row halos, each worker runs the production GT
// forward (the fused attention kernel, then the node and edge streams)
// over its chunk with the model's own parameters, and halo embeddings plus
// cross-chunk duplicate-group and edge-fold synchronisation travel between
// workers over channels. Every message is counted, so the observed traffic
// can be held against dist.AnalyzePathPartition; the output is
// bit-identical to GT.Forward over the same context at any worker count.
// The engine is forward-only: it measures the communication pattern, it
// does not train.
//
// Determinism protocol (the whole design reduces to one rule): every
// floating-point reduction is performed by exactly one owner, over RAW
// rows, in ascending global order, starting from a zero base — the same
// sequence of adds the single engine's SegmentMean kernels execute.
// Workers never exchange partial sums, because partial sums regroup the
// additions and break bit-identity.

// errShardAborted unwinds a worker that was waiting on a peer which
// panicked; it is recognised and swallowed by the worker guard.
var errShardAborted = errors.New("models: shard worker aborted")

// ShardStats reports the exchange traffic of the last Forward of a
// ShardEngine. Message and byte counts are logical — one message per (halo
// boundary, layer), per (duplicate group, non-owner worker, layer,
// direction), per (edge, non-owner referencing worker, layer, direction) —
// exactly the granularity dist.AnalyzePathPartition predicts.
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

// shard is the static plan of one worker's chunk.
type shard struct {
	lo, hi int // own working rows [lo, hi)
	// bufLo/bufHi adds up to ω halo rows on each side: the rows the
	// worker's ops run over. Halo-row outputs are discarded; every op but
	// the attention is row-local, and the attention reads only the pairs
	// whose receiver is an own row.
	bufLo, bufHi int

	pairs []int32 // global pair ids whose receiver is an own row, ascending
	lctx  *Context

	localEdges []int32 // edges the pairs reference plus the owned edges, ascending
	edgeLocal  map[int32]int
	ownEdges   []int32 // owned subset of localEdges, ascending
	edgeTypes  []int32 // EdgeTypeIDs of localEdges

	// Edge-fold plan (owner side): every pair referencing an owned edge,
	// ascending global pair id, with its owned-edge segment — the exact row
	// order EdgeMean accumulates in the single engine.
	foldPairs []int32
	foldSeg   []int32

	// edgeSend schedules the fold messages to remote edge owners,
	// ascending edge id.
	edgeSend []edgeSendPlan
}

// dupGroup is one duplicate-position group (a node revisited by the path).
type dupGroup struct {
	members  []int32 // global rows, ascending
	inv      float64 // 1/len(members), computed as SegmentMean does
	ownerW   int     // worker of members[0]
	workers  []int   // distinct member workers, ascending
	byWorker map[int][]int32
}

// edgeSendPlan schedules one fold message: the rows of this worker's pairs
// referencing a remotely-owned edge.
type edgeSendPlan struct {
	edge   int32
	ownerW int
	pairs  []int32 // this worker's referencing pairs, ascending
}

// shardPlan is the full static execution plan for one (context, k) pair.
type shardPlan struct {
	workers, dim, layers, heads int
	L, omega                    int

	wb     []int // worker bounds, len workers+1
	shards []*shard

	syncActive bool
	groups     []*dupGroup
	rowGroup   []int32 // global row → group index or -1

	edgeOwner      []int32 // edge → owning worker
	ownRow         []int32 // edge → its row in the owner's ownEdges
	edgeRefWorkers [][]int // edge → distinct referencing workers, ascending
	pairW          []int32 // pair → its worker
	pairRow        []int32 // pair → row within its worker's pair list
	edgeIdx        []int32 // the context's global pair→edge map

	fwdCap []int // exact per-worker incoming message count of a Forward
}

// wOfRow is the worker owning row r: ⌊r·k/L⌋, the partition the bounds
// ⌈w·L/k⌉ cut and the chunkOf of dist.AnalyzePathPartition.
func (p *shardPlan) wOfRow(r int) int { return r * p.workers / p.L }

// ShardEngine runs a GT model's forward over a MEGA context split across k
// chunk workers, counting the exchange traffic. Construct once per (model,
// context, k); Forward may then be called any number of times:
//
//	out := eng.Forward()   // bit-identical to model.Forward(ctx)
//	st := eng.Stats()      // the traffic of that Forward
type ShardEngine struct {
	model *GT
	ctx   *Context
	plan  *shardPlan

	run *shardRun
}

// NewShardEngine validates and builds the plan. ctx must be a MEGA context
// (built by NewMegaContext*), and every chunk must be at least ω rows long
// so each halo comes from the adjacent worker alone.
func NewShardEngine(m *GT, ctx *Context, workers int) (*ShardEngine, error) {
	plan, err := buildShardPlan(ctx, workers, m.cfg.Dim, len(m.layers), m.cfg.Heads)
	if err != nil {
		return nil, err
	}
	return &ShardEngine{model: m, ctx: ctx, plan: plan}, nil
}

// buildShardPlan derives the static chunking, ownership, and messaging
// schedule for ctx at the given worker count.
func buildShardPlan(ctx *Context, workers, dim, layers, heads int) (*shardPlan, error) {
	if ctx.posToNode == nil {
		return nil, errors.New("models: shard engine requires a MEGA context")
	}
	if workers < 1 {
		return nil, fmt.Errorf("models: shard workers %d < 1", workers)
	}
	L := ctx.NumRows
	omega := ctx.maxWindow
	if omega < 1 {
		omega = 1
	}
	// The chunks are ⌊L/k⌋ or ⌈L/k⌉ rows long.
	if L/workers < omega {
		return nil, fmt.Errorf("models: window %d exceeds the shortest chunk, %d rows (path %d, %d workers)",
			omega, L/workers, L, workers)
	}
	p := &shardPlan{
		workers: workers, dim: dim, layers: layers, heads: heads,
		L: L, omega: omega,
		edgeIdx: ctx.EdgeIdx,
		fwdCap:  make([]int, workers),
	}
	p.wb = make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		p.wb[w] = (w*L + workers - 1) / workers
	}
	for w := 0; w < workers; w++ {
		sh := &shard{lo: p.wb[w], hi: p.wb[w+1]}
		sh.bufLo, sh.bufHi = max(sh.lo-omega, 0), min(sh.hi+omega, L)
		p.shards = append(p.shards, sh)
	}

	// Pair assignment: a pair lives with its receiver's worker, so each
	// receiver's softmax group is complete within one chunk and local pair
	// lists (ascending global id) preserve the kernels' accumulation order.
	nPairs := len(ctx.RecvIdx)
	p.pairW = make([]int32, nPairs)
	p.pairRow = make([]int32, nPairs)
	for pp := 0; pp < nPairs; pp++ {
		w := p.wOfRow(int(ctx.RecvIdx[pp]))
		sh := p.shards[w]
		if s := int(ctx.SendIdx[pp]); s < sh.bufLo || s >= sh.bufHi {
			return nil, fmt.Errorf("models: pair %d sends from row %d, outside chunk %d's halo [%d,%d)",
				pp, s, w, sh.bufLo, sh.bufHi)
		}
		p.pairW[pp] = int32(w)
		p.pairRow[pp] = int32(len(sh.pairs))
		sh.pairs = append(sh.pairs, int32(pp))
	}

	// Edge ownership: the worker of the first referencing pair; edges no
	// pair references are spread by index (they generate no traffic).
	p.edgeOwner = make([]int32, ctx.NumEdges)
	for e := range p.edgeOwner {
		p.edgeOwner[e] = -1
	}
	edgeRefPairs := make([][]int32, ctx.NumEdges)
	for pp := 0; pp < nPairs; pp++ {
		e := ctx.EdgeIdx[pp]
		if p.edgeOwner[e] < 0 {
			p.edgeOwner[e] = p.pairW[pp]
		}
		edgeRefPairs[e] = append(edgeRefPairs[e], int32(pp))
	}
	p.ownRow = make([]int32, ctx.NumEdges)
	for e := range p.edgeOwner {
		if p.edgeOwner[e] < 0 {
			p.edgeOwner[e] = int32(e * workers / ctx.NumEdges)
		}
		o := p.shards[p.edgeOwner[e]]
		p.ownRow[e] = int32(len(o.ownEdges))
		o.ownEdges = append(o.ownEdges, int32(e))
	}
	// Referencing workers as an ascending set: pair ids do not ascend with
	// their receiver's worker, so adjacent deduplication would miss repeats.
	p.edgeRefWorkers = make([][]int, ctx.NumEdges)
	seen := make([]int, workers) // edge+1 that last marked the worker
	for e, refs := range edgeRefPairs {
		for _, pp := range refs {
			if w := int(p.pairW[pp]); seen[w] != e+1 {
				seen[w] = e + 1
				p.edgeRefWorkers[e] = append(p.edgeRefWorkers[e], w)
			}
		}
		sort.Ints(p.edgeRefWorkers[e])
	}

	// Per-worker local contexts and edge tables.
	for _, sh := range p.shards {
		sh.edgeLocal = make(map[int32]int)
		for _, e := range sh.ownEdges {
			sh.edgeLocal[e] = 0
		}
		for _, pp := range sh.pairs {
			sh.edgeLocal[ctx.EdgeIdx[pp]] = 0
		}
		for e := range sh.edgeLocal {
			sh.localEdges = append(sh.localEdges, e)
		}
		sort.Slice(sh.localEdges, func(a, b int) bool { return sh.localEdges[a] < sh.localEdges[b] })
		sh.edgeTypes = make([]int32, len(sh.localEdges))
		for i, e := range sh.localEdges {
			sh.edgeLocal[e] = i
			sh.edgeTypes[i] = ctx.EdgeTypeIDs[e]
		}
		lctx := &Context{
			NumRows:  sh.bufHi - sh.bufLo,
			NumEdges: len(sh.localEdges),
			RecvIdx:  make([]int32, len(sh.pairs)),
			SendIdx:  make([]int32, len(sh.pairs)),
			EdgeIdx:  make([]int32, len(sh.pairs)),
		}
		for i, pp := range sh.pairs {
			lctx.RecvIdx[i] = ctx.RecvIdx[pp] - int32(sh.bufLo)
			lctx.SendIdx[i] = ctx.SendIdx[pp] - int32(sh.bufLo)
			lctx.EdgeIdx[i] = int32(sh.edgeLocal[ctx.EdgeIdx[pp]])
		}
		sh.lctx = lctx
	}
	// Owner-side fold plan: all referencing pairs of owned edges, ascending
	// global pair id — the single engine's EdgeMean row order.
	for pp := 0; pp < nPairs; pp++ {
		e := ctx.EdgeIdx[pp]
		o := p.shards[p.edgeOwner[e]]
		o.foldPairs = append(o.foldPairs, int32(pp))
		o.foldSeg = append(o.foldSeg, p.ownRow[e])
	}

	// Per-layer incoming messages, tallied as the schedule is built: two
	// halos per interior worker boundary, then one fold in and one
	// broadcast back per non-owner worker of each duplicate group and edge.
	for w := 0; w+1 < workers; w++ {
		p.fwdCap[w]++
		p.fwdCap[w+1]++
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
		for _, rr := range rows {
			// Members ascend, and so do their workers.
			w := p.wOfRow(int(rr))
			if len(g.byWorker[w]) == 0 {
				g.workers = append(g.workers, w)
				if w != g.ownerW {
					p.fwdCap[g.ownerW]++
					p.fwdCap[w]++
				}
			}
			g.byWorker[w] = append(g.byWorker[w], rr)
			p.rowGroup[rr] = int32(len(p.groups))
		}
		p.groups = append(p.groups, g)
	}
	p.syncActive = len(p.groups) > 0

	// Fold schedules, ascending edge id for a deterministic order.
	for e, refs := range edgeRefPairs {
		ownerW := int(p.edgeOwner[e])
		for _, w := range p.edgeRefWorkers[e] {
			if w == ownerW {
				continue
			}
			var pairs []int32
			for _, pp := range refs {
				if int(p.pairW[pp]) == w {
					pairs = append(pairs, pp)
				}
			}
			p.shards[w].edgeSend = append(p.shards[w].edgeSend, edgeSendPlan{edge: int32(e), ownerW: ownerW, pairs: pairs})
			p.fwdCap[ownerW]++
			p.fwdCap[w]++
		}
	}
	for w := range p.fwdCap {
		p.fwdCap[w] *= layers
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
)

// shardKey identifies one exchange message: unique per (phase, layer, id,
// sender). A receiver stashes messages that arrive ahead of the key it is
// waiting on.
type shardKey struct {
	Phase int8
	Layer int16
	ID    int32
	From  int32
}

type shardMsg struct {
	key  shardKey
	data []float64
}

func mkey(phase int8, layer, id, from int) shardKey {
	return shardKey{Phase: phase, Layer: int16(layer), ID: int32(id), From: int32(from)}
}

// shardRun is the mutable state of one Forward.
type shardRun struct {
	eng *ShardEngine

	ch       []chan shardMsg
	stash    []map[shardKey][]float64
	failed   chan struct{}
	failOnce sync.Once
	panicVal any

	finalH []float64 // L×d final embeddings (disjoint worker writes)

	haloMsgs, haloBytes       atomic.Int64
	syncMsgs, syncBytes       atomic.Int64
	edgeMsgs, edgeBytes       atomic.Int64
	collectMsgs, collectBytes atomic.Int64
}

func newShardRun(e *ShardEngine) *shardRun {
	p := e.plan
	r := &shardRun{
		eng:    e,
		ch:     make([]chan shardMsg, p.workers),
		stash:  make([]map[shardKey][]float64, p.workers),
		failed: make(chan struct{}),
		finalH: make([]float64, p.L*p.dim),
	}
	for w := 0; w < p.workers; w++ {
		// With every send buffered, workers can never deadlock on a send.
		r.ch[w] = make(chan shardMsg, p.fwdCap[w])
		r.stash[w] = make(map[shardKey][]float64)
	}
	return r
}

// send delivers data to worker to. Receivers only read a message, so a
// sender may pass a slice it no longer writes without copying it.
func (r *shardRun) send(to int, key shardKey, data []float64, msgs, bytes *atomic.Int64) {
	msgs.Add(1)
	bytes.Add(int64(len(data) * 8))
	select {
	case r.ch[to] <- shardMsg{key: key, data: data}:
	case <-r.failed:
		panic(errShardAborted)
	}
}

func (r *shardRun) recv(w int, key shardKey) []float64 {
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

// guard converts peer-abort panics into a clean exit of a worker; a
// genuine panic is recorded once and re-raised on the caller.
func (r *shardRun) guard() {
	if rec := recover(); rec != nil && rec != errShardAborted {
		r.failOnce.Do(func() {
			r.panicVal = rec
			close(r.failed)
		})
	}
}

func (r *shardRun) rethrow() {
	if r.panicVal != nil {
		panic(r.panicVal)
	}
}

// Forward runs the sharded forward pass and returns the model output,
// bit-identical to m.Forward(ctx).
func (e *ShardEngine) Forward() *tensor.Tensor {
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
			defer run.guard()
			run.workerForward(w)
		}(w)
	}
	wg.Wait()
	release()
	run.rethrow()

	// Exactly the single engine's readout arithmetic over the collected
	// final embeddings.
	ctx := e.ctx
	hFinal := tensor.New(e.plan.L, e.plan.dim, run.finalH)
	nodes := tensor.SegmentMean(hFinal, ctx.posToNode, ctx.numNodeSlots)
	pooled := tensor.SegmentMean(nodes, ctx.nodeGraph, ctx.NumGraphs)
	return e.model.readout.Forward(pooled)
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

// Stats reports the exchange traffic of the last Forward.
func (e *ShardEngine) Stats() ShardStats {
	r := e.run
	s := ShardStats{Workers: e.plan.workers}
	if r == nil {
		return s
	}
	s.HaloMessages, s.HaloBytes = r.haloMsgs.Load(), r.haloBytes.Load()
	s.SyncMessages, s.SyncBytes = r.syncMsgs.Load(), r.syncBytes.Load()
	s.EdgeMessages, s.EdgeBytes = r.edgeMsgs.Load(), r.edgeBytes.Load()
	s.CollectMessages, s.CollectBytes = r.collectMsgs.Load(), r.collectBytes.Load()
	return s
}

// workerForward runs worker w's forward.
func (r *shardRun) workerForward(w int) {
	e := r.eng
	m := e.model
	p := e.plan
	sh := p.shards[w]
	lctx := sh.lctx
	ps := pass64{lctx}
	d := p.dim
	lo, hi := sh.lo, sh.hi
	// hw holds the current embeddings of rows [bufLo, bufHi).
	hw := make([]float64, (sh.bufHi-sh.bufLo)*d)
	rows := func(a, b int) []float64 {
		return hw[(a-sh.bufLo)*d : (b-sh.bufLo)*d]
	}
	row := func(rr int) []float64 { return rows(rr, rr+1) }

	// Layer-1 inputs: the encoder over own rows and local edges.
	copy(rows(lo, hi), tensor.EmbedRows(m.enc.node.Table, e.ctx.NodeTypeIDs[lo:hi]).Data)
	eLoc := tensor.EmbedRows(m.enc.edge.Table, sh.edgeTypes).Data

	for l, lay := range m.layers {
		// Phase 1: dense ω-row halo exchange of the current embeddings.
		if w > 0 {
			r.send(w-1, mkey(phHalo, l, 0, w), append([]float64(nil), rows(lo, lo+p.omega)...), &r.haloMsgs, &r.haloBytes)
		}
		if w < p.workers-1 {
			r.send(w+1, mkey(phHalo, l, 0, w), append([]float64(nil), rows(hi-p.omega, hi)...), &r.haloMsgs, &r.haloBytes)
		}
		if w > 0 {
			copy(rows(lo-p.omega, lo), r.recv(w, mkey(phHalo, l, 0, w-1)))
		}
		if w < p.workers-1 {
			copy(rows(hi, hi+p.omega), r.recv(w, mkey(phHalo, l, 0, w+1)))
		}

		// Phase 2: projections, the fused attention and the node stream
		// over the buffer rows, plus the per-pair k⊙ê rows the edge fold
		// ships (the staged pipeline's two ops, so the same bits).
		h := tensor.New(sh.bufHi-sh.bufLo, d, hw)
		qh := ps.linear(lay.q, h, false)
		kh := ps.linear(lay.k, h, false)
		vh := ps.linear(lay.v, h, false)
		eh := ps.linear(lay.we, tensor.New(len(sh.localEdges), d, eLoc), false)
		att, _ := ps.gtAttention(qh, kh, vh, eh, p.heads)
		kmod := tensor.Mul(lctx.GatherSend(kh), lctx.GatherEdges(eh)).Data
		hOutPre := stream(ps, h, att, lay.o, lay.ffnH1, lay.ffnH2, lay.lnH1, lay.lnH2).Data
		preRow := func(rr int) []float64 {
			off := (rr - sh.bufLo) * d
			return hOutPre[off : off+d]
		}

		// Phase 3: duplicate-group synchronisation → h(ℓ+1) own rows.
		// Owners fold RAW member rows ascending global row from a zero
		// base and broadcast the mean — SegmentMean's exact arithmetic.
		for gi, g := range p.groups {
			mine := g.byWorker[w]
			if g.ownerW == w || len(mine) == 0 {
				continue
			}
			data := make([]float64, 0, len(mine)*d)
			for _, rr := range mine {
				data = append(data, preRow(int(rr))...)
			}
			r.send(g.ownerW, mkey(phSyncFold, l, gi, w), data, &r.syncMsgs, &r.syncBytes)
		}
		for gi, g := range p.groups {
			if g.ownerW != w {
				continue
			}
			remote := make(map[int][]float64)
			for _, ow := range g.workers {
				if ow != w {
					remote[ow] = r.recv(w, mkey(phSyncFold, l, gi, ow))
				}
			}
			mean := make([]float64, d)
			for _, rr := range g.members {
				// A remote member row is a halo row here at best, whose
				// buffer value is not the owner's: take it from the message.
				var src []float64
				if mw := p.wOfRow(int(rr)); mw == w {
					src = preRow(int(rr))
				} else {
					src, remote[mw] = remote[mw][:d], remote[mw][d:]
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
					r.send(ow, mkey(phSyncBcast, l, gi, w), mean, &r.syncMsgs, &r.syncBytes)
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
			src, dst := preRow(rr), row(rr)
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
		for _, ef := range sh.edgeSend {
			data := make([]float64, 0, len(ef.pairs)*d)
			for _, pp := range ef.pairs {
				rw := int(p.pairRow[pp])
				data = append(data, kmod[rw*d:(rw+1)*d]...)
			}
			r.send(ef.ownerW, mkey(phEdgeFold, l, int(ef.edge), w), data, &r.edgeMsgs, &r.edgeBytes)
		}
		// Phase 5: the owned edges' stream — assemble the fold matrix in
		// ascending global pair order, SegmentMean per owned edge (the
		// single engine's EdgeMean bit for bit), then the edge stream.
		var eOut []float64
		if len(sh.ownEdges) > 0 {
			kf := make([]float64, 0, len(sh.foldPairs)*d)
			remote := make(map[[2]int32][]float64)
			for _, pp := range sh.foldPairs {
				if srcW := p.pairW[pp]; int(srcW) == w {
					rw := int(p.pairRow[pp])
					kf = append(kf, kmod[rw*d:(rw+1)*d]...)
				} else {
					rk := [2]int32{p.edgeIdx[pp], srcW}
					data, ok := remote[rk]
					if !ok {
						data = r.recv(w, mkey(phEdgeFold, l, int(rk[0]), int(srcW)))
					}
					kf = append(kf, data[:d]...)
					remote[rk] = data[d:]
				}
			}
			eAvg := tensor.SegmentMean(tensor.New(len(sh.foldPairs), d, kf), sh.foldSeg, len(sh.ownEdges))
			eOwn := make([]float64, 0, len(sh.ownEdges)*d)
			for _, ee := range sh.ownEdges {
				li := sh.edgeLocal[ee]
				eOwn = append(eOwn, eLoc[li*d:(li+1)*d]...)
			}
			eOut = stream(ps, tensor.New(len(sh.ownEdges), d, eOwn), eAvg,
				lay.oe, lay.ffnE1, lay.ffnE2, lay.lnE1, lay.lnE2).Data
		}
		// Phase 6: broadcast owned-edge outputs to referencing workers and
		// refresh the local edge table for the next layer.
		for oi, ee := range sh.ownEdges {
			for _, rw := range p.edgeRefWorkers[ee] {
				if rw != w {
					r.send(rw, mkey(phEdgeBcast, l, int(ee), w), eOut[oi*d:(oi+1)*d], &r.edgeMsgs, &r.edgeBytes)
				}
			}
		}
		for li, ee := range sh.localEdges {
			var src []float64
			if ow := int(p.edgeOwner[ee]); ow == w {
				oi := int(p.ownRow[ee])
				src = eOut[oi*d : (oi+1)*d]
			} else {
				src = r.recv(w, mkey(phEdgeBcast, l, int(ee), ow))
			}
			copy(eLoc[li*d:(li+1)*d], src)
		}
	}

	// Collect: final own rows into the shared output buffer.
	copy(r.finalH[lo*d:hi*d], rows(lo, hi))
	r.collectMsgs.Add(1)
	r.collectBytes.Add(int64((hi - lo) * d * 8))
}
