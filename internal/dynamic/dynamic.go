// Package dynamic maintains a MEGA path representation under streaming
// edge insertions and deletions — the latency-constrained scenario of the
// paper's discussion (§IV-B8: "MEGA can be applied with DYGAT, facilitates
// real-time stroke classification"). A full re-traversal costs O(m·ω);
// online updates must be cheap.
//
// The maintainer's invariant is exact: after every update its Rep/Result
// pair is byte-identical to what a from-scratch preprocess of the live
// graph would produce, so fused kernels, the shard engine, and the serving
// cache can consume repaired representations with no correctness caveats
// (predictions match a full rebuild bit for bit). Incrementality comes
// from *prefix replay*: the objective traversal of the mutated graph
// provably follows the old path up to the first appearance of a mutated
// endpoint — before either endpoint is visited or enters the trailing
// window, no candidate pool, score, or termination test can observe the
// mutation — so that prefix is replayed without candidate ranking
// (traverse.Walker.Replay) and only the suffix re-runs the decision loop.
// The band arrays are then spliced: entries whose position pair lies
// inside the replayed prefix are copied, the rest recomputed
// (band.Splice), preserving the canonical EdgeRefs ordering the shard
// planner depends on.
//
// A WL-delta check (wl.Tracker) estimates how much h-hop structure each
// mutation disturbed; updates whose label delta exceeds a threshold skip
// the replay and rebuild outright, since a structurally global change
// makes a long shared prefix unlikely. The check is a cost policy, never a
// correctness gate — splice and rebuild produce the same representation.
package dynamic

import (
	"errors"
	"fmt"

	"mega/internal/band"
	"mega/internal/graph"
	"mega/internal/traverse"
	"mega/internal/wl"
)

// RepairKind classifies how an update was absorbed.
type RepairKind int

// Repair kinds.
const (
	// RepairSplice replayed the shared path prefix and re-decided only
	// the suffix.
	RepairSplice RepairKind = iota + 1
	// RepairRebuild re-traversed the whole graph.
	RepairRebuild
)

// String implements fmt.Stringer.
func (k RepairKind) String() string {
	switch k {
	case RepairSplice:
		return "splice"
	case RepairRebuild:
		return "rebuild"
	default:
		return fmt.Sprintf("RepairKind(%d)", int(k))
	}
}

// Repair describes how one update was applied.
type Repair struct {
	Kind RepairKind
	// PrefixRows is the number of path positions replayed rather than
	// re-decided (0 for rebuilds).
	PrefixRows int
	// PathRows is the total path length after the repair.
	PathRows int
	// WLChanged is the number of final-round WL labels the mutation
	// changed, or -1 when the estimator is disabled.
	WLChanged int
	// Reason states why a rebuild was taken ("" for splices).
	Reason string
}

// Errors returned by the Maintainer.
var (
	ErrVertexRange = errors.New("dynamic: vertex out of range")
	ErrSelfLoop    = errors.New("dynamic: self loops not supported")
	ErrEdgeExists  = errors.New("dynamic: edge already present")
	ErrEdgeMissing = errors.New("dynamic: edge not present")
	// ErrUnsupported marks graphs or options outside the maintainer's
	// contract: directed graphs, duplicate or self-loop edges, and
	// edge-dropping traversals (dropping is seeded randomness over the
	// edge list, which an incremental repair cannot keep stable).
	ErrUnsupported = errors.New("dynamic: unsupported configuration")
	// ErrBroken is returned after an internal repair error has left the
	// maintainer inconsistent; the owner should discard it.
	ErrBroken = errors.New("dynamic: maintainer broken by earlier error")
)

// Policy tunes the splice-vs-rebuild decision. The zero value selects the
// defaults below; set a field negative to disable that check.
type Policy struct {
	// WLRounds is the depth h of the incremental WL-delta estimator
	// (default 2; negative disables WL tracking entirely, making
	// RebuildFraction moot).
	WLRounds int
	// RebuildFraction rebuilds outright when a mutation changes more
	// than this fraction of final-round WL labels (default 0.25).
	RebuildFraction float64
	// MinPrefixFraction rebuilds when the replayable prefix is shorter
	// than this fraction of the path — ranking candidates for nearly the
	// whole path costs the same as a rebuild (default 1/16).
	MinPrefixFraction float64
}

func (p Policy) resolved() Policy {
	if p.WLRounds == 0 {
		p.WLRounds = 2
	}
	if p.RebuildFraction == 0 {
		p.RebuildFraction = 0.25
	}
	if p.MinPrefixFraction == 0 {
		p.MinPrefixFraction = 1.0 / 16
	}
	return p
}

// Maintainer keeps a graph and its path representation in sync under
// updates. All published state (Rep, Result, Graph) is immutable: repairs
// build fresh representations and swap pointers, so a snapshot taken
// before an update stays internally consistent forever — the copy-on-write
// behaviour the serving cache relies on. A Maintainer is not safe for
// concurrent use; callers serialise access (serve wraps each session in a
// mutex).
type Maintainer struct {
	opts   traverse.Options
	policy Policy

	numNodes int
	g        *graph.Graph
	// fp caches g's fingerprint (a full hash over the edge list) from the
	// first Fingerprint call after a commit until the next commit.
	fp      graph.Fingerprint
	fpValid bool

	rep    *band.Rep
	res    *traverse.Result
	target int // coverage target ⌊θ·m⌋ of the current rep's traversal

	tracker *wl.Tracker

	splices  int
	rebuilds int
	broken   bool
}

// NewMaintainer traverses g once and starts maintaining it under the
// default policy.
func NewMaintainer(g *graph.Graph, opts traverse.Options) (*Maintainer, error) {
	return NewMaintainerPolicy(g, opts, Policy{})
}

// NewMaintainerPolicy is NewMaintainer with an explicit repair policy.
func NewMaintainerPolicy(g *graph.Graph, opts traverse.Options, policy Policy) (*Maintainer, error) {
	m, err := newShell(g, opts, policy)
	if err != nil {
		return nil, err
	}
	w, err := traverse.NewWalker(g, opts)
	if err != nil {
		return nil, err
	}
	res := w.Complete()
	rep, err := band.Build(res.Graph, res, 0)
	if err != nil {
		return nil, err
	}
	m.commit(res.Graph, rep, res, w.Target())
	return m, nil
}

// Adopt starts maintaining an already-preprocessed representation without
// re-traversing: rep and res must be the preprocess output for res.Graph
// under exactly opts (the serving cache's PreparedRep contract). The
// adopted structures are treated as immutable and never modified. If res
// predates step-source recording, Adopt falls back to one fresh traversal.
func Adopt(rep *band.Rep, res *traverse.Result, opts traverse.Options, policy Policy) (*Maintainer, error) {
	if rep == nil || res == nil || res.Graph == nil {
		return nil, fmt.Errorf("%w: adopt requires a complete prepared rep", ErrUnsupported)
	}
	if len(res.Source) != len(res.Path) {
		return NewMaintainerPolicy(res.Graph, opts, policy)
	}
	m, err := newShell(res.Graph, opts, policy)
	if err != nil {
		return nil, err
	}
	// The coverage target must match what the producing walker used.
	w, err := traverse.NewWalker(res.Graph, opts)
	if err != nil {
		return nil, err
	}
	m.commit(res.Graph, rep, res, w.Target())
	return m, nil
}

// newShell validates inputs and builds the WL tracker; the caller supplies
// the representation via commit. The graph is simple, so its own adjacency
// index answers "is {u, v} live, and at which COO index" for every later
// mutation: insertions append (existing IDs stable), deletions compact
// order-preservingly (IDs above the victim shift down by one).
func newShell(g *graph.Graph, opts traverse.Options, policy Policy) (*Maintainer, error) {
	if g.Directed() {
		return nil, fmt.Errorf("%w: directed graph", ErrUnsupported)
	}
	if opts.DropEdges != 0 {
		return nil, fmt.Errorf("%w: edge dropping", ErrUnsupported)
	}
	if opts.SparsifyFraction != 0 && opts.SparsifyFraction != 1 {
		// Incremental repair replays against the full topology; a
		// sparsified rep would need the sampler re-run per mutation, which
		// the splice machinery does not model.
		return nil, fmt.Errorf("%w: sparsification", ErrUnsupported)
	}
	m := &Maintainer{
		opts:     opts,
		policy:   policy.resolved(),
		numNodes: g.NumNodes(),
	}
	if err := nonSimple(g); err != nil {
		return nil, err
	}
	if m.policy.WLRounds > 0 {
		m.tracker = wl.NewTracker(wlAdj{g}, nil, m.policy.WLRounds)
	}
	return m, nil
}

// nonSimple reports the first self loop or repeated endpoint pair in COO
// order, nil on a simple graph. The sorted rows answer "simple?" without a
// map; only a refused graph pays for one, to name the edge.
func nonSimple(g *graph.Graph) error {
	simple := true
	for v := graph.NodeID(0); simple && int(v) < g.NumNodes(); v++ {
		row := g.Neighbors(v)
		for i, u := range row {
			if u == v || (i > 0 && u == row[i-1]) {
				simple = false
				break
			}
		}
	}
	if simple {
		return nil
	}
	seen := make(map[[2]graph.NodeID]bool)
	for i, e := range g.Edges() {
		if e.Src == e.Dst {
			return fmt.Errorf("%w: self loop at edge %d", ErrUnsupported, i)
		}
		key := canon(e.Src, e.Dst)
		if seen[key] {
			return fmt.Errorf("%w: duplicate edge (%d,%d)", ErrUnsupported, e.Src, e.Dst)
		}
		seen[key] = true
	}
	panic("dynamic: non-simple rows over a simple edge list")
}

// wlAdj adapts graph.Graph to wl.Adjacency.
type wlAdj struct{ g *graph.Graph }

func (a wlAdj) NumNodes() int             { return a.g.NumNodes() }
func (a wlAdj) Neighbors(v int32) []int32 { return a.g.Neighbors(v) }

func (m *Maintainer) commit(g *graph.Graph, rep *band.Rep, res *traverse.Result, target int) {
	m.g = g
	m.fpValid = false
	m.rep = rep
	m.res = res
	m.target = target
}

// Rep returns the current representation. It is immutable: subsequent
// updates replace it rather than modify it.
func (m *Maintainer) Rep() *band.Rep { return m.rep }

// Result returns the traversal behind Rep (immutable, like Rep).
func (m *Maintainer) Result() *traverse.Result { return m.res }

// Graph returns the live graph (immutable, like Rep).
func (m *Maintainer) Graph() *graph.Graph { return m.g }

// Fingerprint returns the live graph's canonical topology hash — the cache
// key under which the current representation may be published.
func (m *Maintainer) Fingerprint() graph.Fingerprint {
	if !m.fpValid {
		m.fp, m.fpValid = m.g.Fingerprint(), true
	}
	return m.fp
}

// NumNodes returns the (fixed) vertex count.
func (m *Maintainer) NumNodes() int { return m.numNodes }

// NumEdges returns the live edge count.
func (m *Maintainer) NumEdges() int { return m.g.NumEdges() }

// Splices returns how many updates were absorbed by prefix-replay splices.
func (m *Maintainer) Splices() int { return m.splices }

// Rebuilds returns how many updates fell back to a full re-traversal.
func (m *Maintainer) Rebuilds() int { return m.rebuilds }

func canon(u, v graph.NodeID) [2]graph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

// AddEdge inserts edge {u, v} and repairs the representation. The new edge
// is appended to the COO list as (min, max), keeping existing edge IDs
// stable.
func (m *Maintainer) AddEdge(u, v graph.NodeID) (Repair, error) {
	if err := m.validateAdd(u, v, nil, nil); err != nil {
		return Repair{}, err
	}
	return m.applyAdd(u, v)
}

// RemoveEdge deletes edge {u, v}. The COO list is compacted preserving
// order: IDs above the removed edge shift down by one.
func (m *Maintainer) RemoveEdge(u, v graph.NodeID) (Repair, error) {
	if err := m.validateRemove(u, v, nil, nil); err != nil {
		return Repair{}, err
	}
	return m.applyRemove(u, v)
}

// ApplyBatch applies all removals, then all insertions, as one atomic
// group: every operation is validated against the would-be state before
// any is applied, so a rejected batch leaves the maintainer untouched.
//
// The whole batch is repaired as ONE fused splice or rebuild, not one per
// mutation: only the final representation is constrained by the canonical
// invariant, and the prefix-replay argument generalises — the traversal of
// the post-batch graph follows the old path until the first appearance of
// any mutated endpoint, so one replay at the minimum first-occurrence
// absorbs every mutation at once. A k-mutation batch therefore costs about
// one repair instead of k. The returned slice holds one Repair per repair
// performed (a single element for a fused batch), not one per mutation.
func (m *Maintainer) ApplyBatch(removes, adds [][2]graph.NodeID) ([]Repair, error) {
	if err := m.ValidateBatch(removes, adds); err != nil {
		return nil, err
	}
	switch len(removes) + len(adds) {
	case 0:
		return nil, nil
	case 1:
		var r Repair
		var err error
		if len(removes) == 1 {
			r, err = m.applyRemove(removes[0][0], removes[0][1])
		} else {
			r, err = m.applyAdd(adds[0][0], adds[0][1])
		}
		if err != nil {
			return nil, err
		}
		return []Repair{r}, nil
	}
	r, err := m.applyBatchFused(removes, adds)
	if err != nil {
		return nil, err
	}
	return []Repair{r}, nil
}

// applyBatchFused builds the post-batch graph and composed edge-ID remap in
// one pass and repairs once. Removals compact the COO list preserving
// order, then insertions append as (min, max) — the same canonical
// successor order sequential application produces, so the resulting
// fingerprint is independent of how a batch is split.
func (m *Maintainer) applyBatchFused(removes, adds [][2]graph.NodeID) (Repair, error) {
	old := m.g.Edges()
	victim := make([]bool, len(old))
	for _, e := range removes {
		eid, _ := m.g.EdgeIndex(e[0], e[1]) // live: ValidateBatch passed
		victim[eid] = true
	}
	edges := make([]graph.Edge, 0, len(old)-len(removes)+len(adds))
	var remap []int32
	if len(removes) > 0 {
		remap = make([]int32, len(old))
	}
	for i, e := range old {
		if victim[i] {
			remap[i] = -1
			continue
		}
		if remap != nil {
			remap[i] = int32(len(edges))
		}
		edges = append(edges, e)
	}
	endpoints := make([]graph.NodeID, 0, 2*(len(removes)+len(adds)))
	for _, e := range removes {
		endpoints = append(endpoints, e[0], e[1])
	}
	for _, e := range adds {
		k := canon(e[0], e[1])
		edges = append(edges, graph.Edge{Src: k[0], Dst: k[1]})
		endpoints = append(endpoints, e[0], e[1])
	}
	gNew, err := graph.New(m.numNodes, edges, false)
	if err != nil {
		m.broken = true
		return Repair{}, err
	}
	return m.repairMulti(gNew, endpoints, remap)
}

// ValidateBatch checks a batch without applying it. Removals precede
// insertions, so removing an edge inserted by the same batch is invalid,
// while re-inserting an edge the batch removes is fine.
func (m *Maintainer) ValidateBatch(removes, adds [][2]graph.NodeID) error {
	if m.broken {
		return ErrBroken
	}
	removed := make(map[[2]graph.NodeID]bool, len(removes))
	for _, e := range removes {
		if err := m.validateRemove(e[0], e[1], removed, nil); err != nil {
			return err
		}
		removed[canon(e[0], e[1])] = true
	}
	added := make(map[[2]graph.NodeID]bool, len(adds))
	for _, e := range adds {
		if err := m.validateAdd(e[0], e[1], removed, added); err != nil {
			return err
		}
		added[canon(e[0], e[1])] = true
	}
	return nil
}

func (m *Maintainer) validateAdd(u, v graph.NodeID, removed, added map[[2]graph.NodeID]bool) error {
	if err := m.checkVertices(u, v); err != nil {
		return err
	}
	key := canon(u, v)
	if m.g.HasEdge(u, v) && !removed[key] {
		return fmt.Errorf("%w: (%d,%d)", ErrEdgeExists, u, v)
	}
	if added[key] {
		return fmt.Errorf("%w: (%d,%d) twice in batch", ErrEdgeExists, u, v)
	}
	return nil
}

func (m *Maintainer) validateRemove(u, v graph.NodeID, removed, _ map[[2]graph.NodeID]bool) error {
	if err := m.checkVertices(u, v); err != nil {
		return err
	}
	key := canon(u, v)
	if !m.g.HasEdge(u, v) || removed[key] {
		return fmt.Errorf("%w: (%d,%d)", ErrEdgeMissing, u, v)
	}
	return nil
}

func (m *Maintainer) checkVertices(u, v graph.NodeID) error {
	if m.broken {
		return ErrBroken
	}
	if u < 0 || int(u) >= m.numNodes || v < 0 || int(v) >= m.numNodes {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, u, v, m.numNodes)
	}
	if u == v {
		return ErrSelfLoop
	}
	return nil
}

func (m *Maintainer) applyAdd(u, v graph.NodeID) (Repair, error) {
	key := canon(u, v)
	edges := append(m.g.Edges(), graph.Edge{Src: key[0], Dst: key[1]})
	gNew, err := graph.New(m.numNodes, edges, false)
	if err != nil {
		m.broken = true
		return Repair{}, err
	}
	return m.repair(gNew, u, v, nil)
}

func (m *Maintainer) applyRemove(u, v graph.NodeID) (Repair, error) {
	eid, _ := m.g.EdgeIndex(u, v) // live: validateRemove passed
	old := m.g.Edges()
	edges := append(old[:eid], old[eid+1:]...)
	gNew, err := graph.New(m.numNodes, edges, false)
	if err != nil {
		m.broken = true
		return Repair{}, err
	}
	remap := make([]int32, len(old))
	for i := range remap {
		switch {
		case int32(i) < eid:
			remap[i] = int32(i)
		case int32(i) == eid:
			remap[i] = -1
		default:
			remap[i] = int32(i) - 1
		}
	}
	return m.repair(gNew, u, v, remap)
}

// repair brings the representation in sync with gNew after the mutation of
// edge {u, v}, splicing when the prefix-replay preconditions hold and
// rebuilding otherwise. remap translates old COO edge IDs to gNew's (nil
// for insertions).
func (m *Maintainer) repair(gNew *graph.Graph, u, v graph.NodeID, remap []int32) (Repair, error) {
	return m.repairMulti(gNew, []graph.NodeID{u, v}, remap)
}

// repairMulti is repair over a whole mutation batch already materialised as
// gNew: endpoints lists every vertex incident to a mutated edge, and remap
// composes all the batch's removals. The shared prefix ends at the minimum
// first occurrence across all endpoints — before any of them is visited or
// enters the trailing window, no candidate pool, score, stack, or
// termination test can observe any of the batch's mutations.
func (m *Maintainer) repairMulti(gNew *graph.Graph, endpoints []graph.NodeID, remap []int32) (Repair, error) {
	wlChanged := -1
	if m.tracker != nil {
		wlChanged = m.tracker.UpdateBatch(wlAdj{gNew}, endpoints)
		if frac := m.policy.RebuildFraction; frac > 0 && frac < 1 &&
			float64(wlChanged) > frac*float64(m.numNodes) {
			return m.rebuildFrom(gNew, nil, wlChanged, "wl-delta")
		}
	}

	w, err := traverse.NewWalker(gNew, m.opts)
	if err != nil {
		m.broken = true
		return Repair{}, err
	}
	// Layout guards: the adaptive window and default start are functions
	// of the whole graph; if the mutation moved either, the old path's
	// geometry no longer applies and no prefix is shareable.
	if w.Window() != m.rep.Window {
		return m.rebuildFrom(gNew, w, wlChanged, "window-changed")
	}
	if len(m.res.Path) == 0 || w.Start() != m.res.Path[0] {
		return m.rebuildFrom(gNew, w, wlChanged, "start-changed")
	}

	// The traversal of gNew provably follows the old path up to the first
	// appearance of a mutated endpoint: before any endpoint is visited or
	// enters the trailing window, no candidate set, score, stack, or
	// termination test differs between the two graphs.
	p := len(m.res.Path)
	for _, end := range endpoints {
		if pos := m.rep.Positions[end]; len(pos) == 0 {
			p = 0
		} else if int(pos[0]) < p {
			p = int(pos[0])
		}
	}
	if float64(p) < m.policy.MinPrefixFraction*float64(len(m.res.Path)) {
		return m.rebuildFrom(gNew, w, wlChanged, "short-prefix")
	}

	// Replay the shared prefix. The one divergence the targets can cause:
	// once coverage crosses the smaller of the two targets, the edgesDone
	// flag could differ between the runs, so later decisions are no
	// longer guaranteed identical — stop there and let the decision loop
	// re-decide the rest (conservative, and vanishingly rare under full
	// coverage: it needs every old edge covered before either endpoint's
	// first visit).
	oldTarget, newTarget := m.target, w.Target()
	minTarget := oldTarget
	if newTarget < minTarget {
		minTarget = newTarget
	}
	replayed := 0
	for i := 0; i < p; i++ {
		if oldTarget != newTarget && w.Covered() >= minTarget {
			break
		}
		if err := w.Replay(m.res.Path[i], m.res.Source[i]); err != nil {
			return m.rebuildFrom(gNew, nil, wlChanged, "replay-diverged")
		}
		replayed++
	}
	res := w.Complete()
	rep, err := band.Splice(m.rep, res, gNew, replayed, remap)
	if err != nil {
		return m.rebuildFrom(gNew, nil, wlChanged, "splice-failed")
	}
	m.commit(gNew, rep, res, newTarget)
	m.splices++
	return Repair{
		Kind:       RepairSplice,
		PrefixRows: replayed,
		PathRows:   len(res.Path),
		WLChanged:  wlChanged,
	}, nil
}

// rebuildFrom re-traverses gNew from scratch. w, when non-nil, is a fresh
// walker on gNew that has taken no steps yet.
func (m *Maintainer) rebuildFrom(gNew *graph.Graph, w *traverse.Walker, wlChanged int, reason string) (Repair, error) {
	if w == nil {
		var err error
		w, err = traverse.NewWalker(gNew, m.opts)
		if err != nil {
			m.broken = true
			return Repair{}, err
		}
	}
	res := w.Complete()
	rep, err := band.Build(res.Graph, res, 0)
	if err != nil {
		m.broken = true
		return Repair{}, err
	}
	m.commit(res.Graph, rep, res, w.Target())
	m.rebuilds++
	return Repair{
		Kind:      RepairRebuild,
		PathRows:  len(res.Path),
		WLChanged: wlChanged,
		Reason:    reason,
	}, nil
}

// Rebuild forces a full re-traversal of the live graph.
func (m *Maintainer) Rebuild() error {
	if m.broken {
		return ErrBroken
	}
	_, err := m.rebuildFrom(m.g, nil, -1, "forced")
	return err
}
