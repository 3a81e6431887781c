// Package traverse implements MEGA's preprocessing stage: the objective
// graph traversal (the paper's Algorithm 1) that converts a graph into a
// *path representation* — an ordering of vertices, with bounded revisits,
// such that every edge falls within ω positions of its endpoints' path
// appearances. Downstream, diagonal attention over this path replaces
// irregular gather/scatter with banded dense operations (package band).
//
// An edge {u, v} is *covered* once an appearance of u and an appearance of
// v land within ω path positions of each other — the condition for the edge
// to fall inside the attention band. This matches the paper's revisit lower
// bound Σ⌈dᵢ/ω⌉ − n (§III-B), where each appearance of a vertex can cover
// up to ω incident edges.
//
// The traversal keeps candidate pools in the paper's priority order:
//
//  1. unvisited neighbours of the current vertex with uncovered edges,
//  2. unvisited vertices with an uncovered edge into the trailing window
//     (reached by a virtual transition but covering at least one edge
//     with zero revisits — the mechanism that lets a larger ω approach the
//     lower bound),
//  3. already-visited vertices with remaining uncovered edges (a LIFO
//     stack, so the revisited vertex is the one most correlated with the
//     recently traversed path),
//  4. any remaining unvisited vertex (a pure virtual jump).
//
// Ties inside a pool are broken by the correlate() objective of Eq. (2):
// the candidate with the most neighbours among the trailing ω path entries
// wins, which maximises how much of the local neighbourhood lands inside
// the attention window.
package traverse

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"mega/internal/graph"
	"mega/internal/sparsify"
)

// Options configures a traversal.
type Options struct {
	// Window is ω, the coverage window (and downstream attention band
	// half-width). Zero selects the adaptive policy: ω = max(1,
	// round(mean degree)), per §III-B ("adaptively tuned based on the mean
	// degree of the input processing graph").
	Window int
	// EdgeCoverage is θ ∈ (0, 1]: the traversal may stop once this
	// fraction of edges is covered and all vertices visited. Zero selects
	// 1.0 (cover everything), the setting used for the paper's end-to-end
	// speedup comparisons ("path representations ... encompassed all nodes
	// and edges present in the original graph", §IV-A).
	EdgeCoverage float64
	// DropEdges removes this fraction of edges before traversal (the
	// §IV-B5 "edge dropping" mode; the paper drops 20%). 0 disables
	// dropping.
	DropEdges float64
	// DropStrategy selects which edges go. The zero value is DropRandom
	// (the paper's §IV-B5 setting); DropRedundant drops the edges whose
	// endpoints have the most alternative connections first — the
	// SparseGAT-inspired sparsity exploration of §IV-B8.
	DropStrategy DropStrategy
	// Start pins the starting vertex. Negative selects the default:
	// the highest-degree vertex (ties to the lowest ID), a deterministic
	// choice that tends to anchor the path in a dense cluster.
	Start graph.NodeID
	// Seed seeds edge dropping. Traversal itself is deterministic.
	Seed int64
	// SparsifyFraction enables effective-resistance sparsification
	// (package sparsify) as a second, independent edge filter: the sampler
	// keeps about this fraction of edges, preferring structurally
	// irreplaceable ones. 0 disables; 1 is a validated no-op. Composes
	// with DropEdges: both filters decide against the ORIGINAL edge list
	// and the keep-masks are intersected, so the two samplers never couple
	// and their application order cannot matter.
	SparsifyFraction float64
	// SparsifySeed seeds the sparsifier. It is deliberately separate from
	// Seed, and the sparsify sampler hashes per edge under a distinct salt,
	// so even SparsifySeed == Seed cannot correlate the two filters.
	SparsifySeed int64
}

// DefaultOptions returns the options used by the end-to-end experiments:
// full edge coverage, adaptive window, no dropping.
func DefaultOptions() Options {
	return Options{Window: 0, EdgeCoverage: 1.0, DropEdges: 0, Start: -1}
}

// Result is a computed path representation.
type Result struct {
	// Path is the vertex visiting order; vertices may repeat (revisits).
	Path []graph.NodeID
	// Virtual[i] reports that the transition Path[i-1] -> Path[i] is a
	// virtual edge: the two vertices are not adjacent in the (possibly
	// edge-dropped) input graph. Virtual[0] is always false.
	Virtual []bool
	// Source[i] records which candidate pool produced Path[i]: a trace of
	// the decision loop, one entry per path step.
	Source []StepSource
	// Window is the effective ω used.
	Window int
	// CoveredEdges counts distinct edges whose endpoints came within ω
	// path positions — the edges the attention band will see.
	CoveredEdges int
	// TotalEdges is the number of edges after dropping.
	TotalEdges int
	// DroppedEdges is the number of edges the DropEdges filter rejected
	// (counted against the original edge list, independent of whether the
	// sparsifier would also have rejected them).
	DroppedEdges int
	// SparsifiedEdges is the number of edges the SparsifyFraction filter
	// removed beyond DropEdges: original edges the drop filter kept but
	// the sparsifier rejected. TotalEdges + DroppedEdges + SparsifiedEdges
	// equals the original edge count.
	SparsifiedEdges int
	// Revisits is len(Path) minus the number of distinct vertices.
	Revisits int
	// VirtualEdges counts true entries of Virtual.
	VirtualEdges int
	// Graph is the graph the traversal actually walked: the input graph,
	// or the filtered copy when DropEdges/SparsifyFraction were set.
	// Downstream band construction must use this graph so removed edges
	// stay removed.
	Graph *graph.Graph
}

// Len returns the path length (number of vertex appearances).
func (r *Result) Len() int { return len(r.Path) }

// EdgeCoverageRatio returns CoveredEdges / TotalEdges (1 if the graph has
// no edges).
func (r *Result) EdgeCoverageRatio() float64 {
	if r.TotalEdges == 0 {
		return 1
	}
	return float64(r.CoveredEdges) / float64(r.TotalEdges)
}

// Expansion returns len(Path) / n, the memory blow-up of the path
// representation ("this value does not surpass a certain degree", §IV-B6).
func (r *Result) Expansion(n int) float64 {
	if n == 0 {
		return 1
	}
	return float64(len(r.Path)) / float64(n)
}

// StepSource identifies the candidate pool that produced one path step.
type StepSource uint8

// Step sources, in the pool priority order of the decision loop.
const (
	// SourceStart is the pinned or max-degree starting vertex (step 0).
	SourceStart StepSource = iota
	// SourceNeighbor is pool 1: an unvisited neighbour of the current
	// vertex reached through an uncovered edge.
	SourceNeighbor
	// SourceNeighborRevisit is pool 1b: a visited neighbour reached
	// through an uncovered edge.
	SourceNeighborRevisit
	// SourceWindow is pool 2: an unvisited vertex with an uncovered edge
	// into the trailing window.
	SourceWindow
	// SourceStack is pool 3: a revisit popped from the pending stack.
	SourceStack
	// SourceJump is pool 4: a pure virtual jump to an unvisited vertex.
	SourceJump
)

// String implements fmt.Stringer.
func (s StepSource) String() string {
	switch s {
	case SourceStart:
		return "start"
	case SourceNeighbor:
		return "neighbor"
	case SourceNeighborRevisit:
		return "neighbor-revisit"
	case SourceWindow:
		return "window"
	case SourceStack:
		return "stack"
	case SourceJump:
		return "jump"
	default:
		return fmt.Sprintf("StepSource(%d)", int(s))
	}
}

// Errors returned by Run.
var (
	ErrEmptyGraph = errors.New("traverse: graph has no vertices")
	ErrBadOptions = errors.New("traverse: invalid options")
)

// AdaptiveWindow returns the adaptive ω for a graph: max(1, round(mean
// degree)). Exposed so callers (and the ablation bench) can compare fixed
// and adaptive policies.
func AdaptiveWindow(g *graph.Graph) int {
	w := int(g.MeanDegree() + 0.5)
	if w < 1 {
		w = 1
	}
	return w
}

// RevisitLowerBound returns the paper's optimistic lower bound on the
// number of revisits for window ω: Σ_i ⌈d_i/ω⌉ − n (§III-B "Limiting
// vertex revisit").
func RevisitLowerBound(degrees []int, omega int) int {
	if omega < 1 {
		omega = 1
	}
	total := 0
	for _, d := range degrees {
		if d == 0 {
			total++ // isolated vertices still appear once
			continue
		}
		total += (d + omega - 1) / omega
	}
	return total - len(degrees)
}

// Validate checks the options that do not depend on the graph: edge
// coverage in [0, 1] (0 selects full coverage), drop fraction in [0, 1),
// sparsify fraction in [0, 1], and a DropStrategy that names one of the
// two strategies. NaN fails every range. Run additionally rejects a
// directed graph and a start vertex outside it.
func (o Options) Validate() error {
	if !(o.EdgeCoverage >= 0 && o.EdgeCoverage <= 1) {
		return fmt.Errorf("%w: edge coverage %v outside [0, 1]", ErrBadOptions, o.EdgeCoverage)
	}
	if !(o.DropEdges >= 0 && o.DropEdges < 1) {
		return fmt.Errorf("%w: drop fraction %v outside [0, 1)", ErrBadOptions, o.DropEdges)
	}
	if !(o.SparsifyFraction >= 0 && o.SparsifyFraction <= 1) {
		return fmt.Errorf("%w: sparsify fraction %v outside [0, 1]", ErrBadOptions, o.SparsifyFraction)
	}
	if o.DropStrategy != DropRandom && o.DropStrategy != DropRedundant {
		return fmt.Errorf("%w: unknown drop strategy %d", ErrBadOptions, int(o.DropStrategy))
	}
	return nil
}

// Run executes the objective traversal on g and returns the path
// representation.
func Run(g *graph.Graph, opts Options) (*Result, error) {
	w, err := newWalker(g, opts)
	if err != nil {
		return nil, err
	}
	w.t.visit(w.start, false)
	w.sources = append(w.sources, SourceStart)
	w.runLoop()
	return w.result(), nil
}

// walker is one objective traversal: the graph it walks (after any edge
// filtering), the resolved window, start vertex and coverage target, and
// the decision loop's state.
type walker struct {
	t          *traversal
	work       *graph.Graph
	omega      int
	start      graph.NodeID
	target     int
	dropped    int
	sparsified int
	sources    []StepSource
}

// newWalker validates options, applies edge dropping and sparsification,
// and resolves the effective window, start vertex, and coverage target
// without taking any steps.
func newWalker(g *graph.Graph, opts Options) (*walker, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	if g.Directed() {
		// Covering an edge removes it from both endpoints' rows; an arc
		// with no reverse would stay uncovered on one side forever.
		return nil, fmt.Errorf("%w: directed graph (the traversal needs symmetric adjacency)", ErrBadOptions)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.EdgeCoverage == 0 {
		opts.EdgeCoverage = 1.0
	}

	work := g
	dropped, sparsified := 0, 0
	dropOn := opts.DropEdges > 0
	sparsOn := opts.SparsifyFraction > 0 && opts.SparsifyFraction < 1
	if dropOn || sparsOn {
		// Both filters decide against the original edge list, then the
		// keep-masks are intersected. Evaluating each filter on g (never on
		// the other's output) is what makes the composition commute
		// bit-for-bit and keeps either filter's random stream fixed when the
		// other is toggled.
		edges := g.Edges()
		keep := make([]bool, len(edges))
		for i := range keep {
			keep[i] = true
		}
		if dropOn {
			for i, k := range dropKeepMask(g, opts.DropEdges, opts.DropStrategy, opts.Seed) {
				if !k {
					keep[i] = false
					dropped++
				}
			}
		}
		if sparsOn {
			sk, err := sparsify.New(g, sparsify.Options{Fraction: opts.SparsifyFraction, Seed: opts.SparsifySeed})
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadOptions, err)
			}
			for i := range keep {
				if !sk[i] {
					if keep[i] {
						sparsified++
					}
					keep[i] = false
				}
			}
		}
		kept := make([]graph.Edge, 0, len(edges)-dropped-sparsified)
		for i, e := range edges {
			if keep[i] {
				kept = append(kept, e)
			}
		}
		var err error
		work, err = graph.New(g.NumNodes(), kept, g.Directed())
		if err != nil {
			return nil, err
		}
	}

	omega := opts.Window
	if omega <= 0 {
		omega = AdaptiveWindow(work)
	}

	t := newTraversal(work, omega)
	start := opts.Start
	if start < 0 {
		start = maxDegreeVertex(work)
	} else if int(start) >= n {
		return nil, fmt.Errorf("%w: start vertex %d out of range", ErrBadOptions, start)
	}
	return &walker{
		t:          t,
		work:       work,
		omega:      omega,
		start:      start,
		target:     int(opts.EdgeCoverage * float64(work.NumEdges())),
		dropped:    dropped,
		sparsified: sparsified,
	}, nil
}

func (w *walker) runLoop() {
	t, work, target := w.t, w.work, w.target
	for {
		nodesDone := t.numUnvisited == 0
		edgesDone := t.covered >= target
		if nodesDone && edgesDone {
			break
		}
		curr := t.path[len(t.path)-1]
		// Pool 1: unvisited neighbours of curr via uncovered edges.
		if next, ok := t.bestRemainingNeighbor(curr, true); ok {
			t.visit(next, false)
			w.sources = append(w.sources, SourceNeighbor)
			continue
		}
		if !edgesDone {
			// Pool 1b: uncovered edges to visited neighbours (needed to
			// reach θ = 1; see package comment).
			if next, ok := t.bestRemainingNeighbor(curr, false); ok {
				t.visit(next, false)
				w.sources = append(w.sources, SourceNeighborRevisit)
				continue
			}
			// Pool 2: unvisited vertices with an uncovered edge into the
			// trailing window — covers edges without revisits.
			if next, ok := t.bestWindowCoveringUnvisited(); ok {
				t.visit(next, !work.HasEdge(curr, next))
				w.sources = append(w.sources, SourceWindow)
				continue
			}
			// Pool 3: revisit the most recently stacked vertex that still
			// has uncovered incident edges.
			if next, ok := t.popStack(); ok {
				t.visit(next, !work.HasEdge(curr, next))
				w.sources = append(w.sources, SourceStack)
				continue
			}
		}
		// Pool 4: pure virtual jump to any remaining unvisited vertex.
		if !nodesDone {
			next := t.bestUnvisited()
			t.visit(next, !work.HasEdge(curr, next))
			w.sources = append(w.sources, SourceJump)
			continue
		}
		// All vertices visited and no coverable edges remain anywhere:
		// the coverage target is unreachable (rounding on tiny graphs).
		break
	}
}

func (w *walker) result() *Result {
	t := w.t
	res := &Result{
		Path:            t.path,
		Virtual:         t.virtual,
		Source:          w.sources,
		Window:          w.omega,
		CoveredEdges:    t.covered,
		TotalEdges:      w.work.NumEdges(),
		DroppedEdges:    w.dropped,
		SparsifiedEdges: w.sparsified,
		Graph:           w.work,
	}
	res.Revisits = len(t.path) - (w.work.NumNodes() - t.numUnvisited)
	for _, vt := range t.virtual {
		if vt {
			res.VirtualEdges++
		}
	}
	return res
}

// traversal is the mutable state of one objective-traversal run, held in
// flat arrays indexed by vertex or by slot. A slot is one (vertex, distinct
// neighbour) pair — parallel edges share a slot, they cover together — and
// the slots of v are rowPtr[v]..rowPtr[v+1] in ascending neighbour order.
type traversal struct {
	g     *graph.Graph
	omega int

	rowPtr []int32
	nbr    []graph.NodeID // nbr[s] is the neighbour of slot s
	twin   []int32        // twin[s] is the slot of the reverse arc (s itself for a self loop)
	// live[rowPtr[v]:rowPtr[v]+liveLen[v]] holds the slots of v's
	// not-yet-covered edges in no particular order, and pos[s] is where
	// slot s sits in live, so covering an edge is two O(1) swap-deletes.
	live    []int32
	pos     []int32
	liveLen []int32

	unvisited    []bool
	numUnvisited int
	stack        []graph.NodeID
	onStack      []bool

	path    []graph.NodeID
	virtual []bool
	// The trailing window is path[len(path)-omega:]. inWindow[v] counts v's
	// appearances in it, and score[x] = Σ_{u ∈ N(x)} inWindow[u] is Eq. (2)
	// for every vertex at once, kept current as the window slides.
	inWindow []int32
	score    []int32

	covered int
}

func newTraversal(g *graph.Graph, omega int) *traversal {
	n := g.NumNodes()
	carve := func(buf *[]int32, k int) []int32 {
		out := (*buf)[:k:k]
		*buf = (*buf)[k:]
		return out
	}
	perVertex := make([]int32, 4*n+1)
	flags := make([]bool, 2*n)
	t := &traversal{
		g:            g,
		omega:        omega,
		rowPtr:       carve(&perVertex, n+1),
		liveLen:      carve(&perVertex, n),
		inWindow:     carve(&perVertex, n),
		score:        carve(&perVertex, n),
		unvisited:    flags[:n:n],
		onStack:      flags[n:],
		numUnvisited: n,
		path:         make([]graph.NodeID, 0, n+n/2),
		virtual:      make([]bool, 0, n+n/2),
	}
	for v := 0; v < n; v++ {
		t.unvisited[v] = true
		distinct, prev := int32(0), graph.NodeID(-1)
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if u != prev {
				distinct, prev = distinct+1, u
			}
		}
		t.rowPtr[v+1] = t.rowPtr[v] + distinct
	}
	slots := int(t.rowPtr[n])
	perSlot := make([]int32, 4*slots)
	t.nbr = carve(&perSlot, slots)
	t.twin = carve(&perSlot, slots)
	t.live = carve(&perSlot, slots)
	t.pos = carve(&perSlot, slots)
	// Rows are sorted and symmetric, so the arcs into u arrive in the order
	// of u's own row: the reverse of the k-th arc seen into u is u's k-th
	// slot. liveLen does the counting, and ends at each row's full length.
	s := int32(0)
	for v := 0; v < n; v++ {
		prev := graph.NodeID(-1)
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if u == prev {
				continue
			}
			prev = u
			t.nbr[s], t.live[s], t.pos[s] = u, s, s
			t.twin[s] = t.rowPtr[u] + t.liveLen[u]
			t.liveLen[u]++
			s++
		}
	}
	return t
}

// liveSlots returns the slots of v's not-yet-covered edges.
func (t *traversal) liveSlots(v graph.NodeID) []int32 {
	return t.live[t.rowPtr[v] : t.rowPtr[v]+t.liveLen[v]]
}

// dropSlot removes slot s from v's live segment.
func (t *traversal) dropSlot(v graph.NodeID, s int32) {
	t.liveLen[v]--
	p, moved := t.pos[s], t.live[t.rowPtr[v]+t.liveLen[v]]
	t.live[p], t.pos[moved] = moved, p
}

// slide adds d appearances of v to the trailing window.
func (t *traversal) slide(v graph.NodeID, d int32) {
	t.inWindow[v] += d
	for _, x := range t.g.Neighbors(v) {
		t.score[x] += d
	}
}

// visit appends v to the path, covering every uncovered edge between v and
// the vertices currently inside the trailing window, and updates all
// bookkeeping.
func (t *traversal) visit(v graph.NodeID, isVirtual bool) {
	// Cover edges from v into the window *before* v joins it.
	base := t.rowPtr[v]
	for i := int32(0); i < t.liveLen[v]; {
		s := t.live[base+i]
		u := t.nbr[s]
		if t.inWindow[u] == 0 {
			i++
			continue
		}
		t.dropSlot(v, s) // refills index i with v's last live slot
		if u != v {
			t.dropSlot(u, t.twin[s])
		}
		t.covered++
	}
	t.path = append(t.path, v)
	t.virtual = append(t.virtual, isVirtual)
	if t.unvisited[v] {
		t.unvisited[v] = false
		t.numUnvisited--
	}
	if t.liveLen[v] > 0 && !t.onStack[v] {
		t.stack = append(t.stack, v)
		t.onStack[v] = true
	}
	t.slide(v, 1)
	if n := len(t.path); n > t.omega {
		t.slide(t.path[n-t.omega-1], -1)
	}
}

// correlate ranks a candidate by Eq. (2): the number of v's original
// neighbours among the trailing ω path entries (counting window
// multiplicity, so a neighbour appearing twice in the window scores twice —
// it will be attended twice).
func (t *traversal) correlate(v graph.NodeID) int {
	return int(t.score[v])
}

// bestRemainingNeighbor returns the neighbour of curr with an uncovered
// connecting edge that maximises correlate(), preferring lower IDs on ties
// for determinism. With unvisitedOnly, candidates are restricted to
// unvisited vertices (the paper's first candidate pool).
func (t *traversal) bestRemainingNeighbor(curr graph.NodeID, unvisitedOnly bool) (graph.NodeID, bool) {
	best := graph.NodeID(-1)
	bestScore := -1
	for _, slot := range t.liveSlots(curr) {
		u := t.nbr[slot]
		if u == curr {
			continue // self loops cover via the window, not transitions
		}
		if unvisitedOnly && !t.unvisited[u] {
			continue
		}
		s := t.correlate(u)
		if s > bestScore || (s == bestScore && u < best) {
			best, bestScore = u, s
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// bestWindowCoveringUnvisited scans the trailing window for unvisited
// vertices reachable through an uncovered edge and returns the one
// maximising correlate(). Appending such a vertex covers at least one edge
// without any revisit.
func (t *traversal) bestWindowCoveringUnvisited() (graph.NodeID, bool) {
	best := graph.NodeID(-1)
	bestScore := -1
	for _, w := range t.path[max(0, len(t.path)-t.omega):] {
		for _, slot := range t.liveSlots(w) {
			u := t.nbr[slot]
			if !t.unvisited[u] {
				continue
			}
			s := t.correlate(u)
			if s > bestScore || (s == bestScore && u < best) {
				best, bestScore = u, s
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// popStack discards exhausted pending entries and returns the topmost
// vertex that still has uncovered incident edges: the paper's stack, whose
// top is the pending vertex most correlated with the recently traversed
// path.
func (t *traversal) popStack() (graph.NodeID, bool) {
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.onStack[top] = false
		if t.liveLen[top] > 0 {
			return top, true
		}
	}
	return 0, false
}

// bestUnvisited returns the unvisited vertex maximising correlate(),
// breaking ties toward the lowest ID.
func (t *traversal) bestUnvisited() graph.NodeID {
	best := graph.NodeID(-1)
	bestScore := -1
	for v, open := range t.unvisited {
		if !open {
			continue
		}
		if s := t.correlate(graph.NodeID(v)); s > bestScore {
			best, bestScore = graph.NodeID(v), s
		}
	}
	return best
}

// maxDegreeVertex returns the highest-degree vertex, lowest ID on ties.
func maxDegreeVertex(g *graph.Graph) graph.NodeID {
	best := graph.NodeID(0)
	bestDeg := -1
	for v := 0; v < g.NumNodes(); v++ {
		d := g.Degree(graph.NodeID(v))
		if d > bestDeg {
			best, bestDeg = graph.NodeID(v), d
		}
	}
	return best
}

// DropStrategy selects how DropEdges chooses victims.
type DropStrategy int

// Drop strategies.
const (
	// DropRandom removes a uniform random fraction (DropEdge-style).
	DropRandom DropStrategy = iota
	// DropRedundant removes the highest degree-product edges first: both
	// endpoints keep many alternative connections, so the structural loss
	// is smallest — the SparseGAT-inspired heuristic. Ties and the exact
	// count are randomised by Seed.
	DropRedundant
)

// String implements fmt.Stringer.
func (s DropStrategy) String() string {
	if s == DropRedundant {
		return "redundant"
	}
	return "random"
}

// dropKeepMask computes the DropEdges filter's per-edge keep decisions
// over g's original edge list (true = survives). Returning a mask rather
// than a rebuilt graph lets newWalker intersect this filter with the
// sparsifier's: each decides against the original list, so neither can
// perturb the other's stream. The DropRandom stream (one sequential
// rng.Float64 per original edge, seeded seed^0xD20B) is the pre-existing
// pinned behaviour and must not change.
func dropKeepMask(g *graph.Graph, frac float64, strategy DropStrategy, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed ^ 0xD20B))
	edges := g.Edges()
	keep := make([]bool, len(edges))
	switch strategy {
	case DropRedundant:
		target := int(frac * float64(len(edges)))
		// Score = deg(u)*deg(v) with a small random perturbation so
		// equal-score edges drop in varying order across seeds.
		type scored struct {
			idx   int
			score float64
		}
		ranked := make([]scored, len(edges))
		for i, e := range edges {
			ranked[i] = scored{
				idx:   i,
				score: float64(g.Degree(e.Src)*g.Degree(e.Dst)) * (1 + 0.01*rng.Float64()),
			}
		}
		sort.Slice(ranked, func(a, b int) bool { return ranked[a].score > ranked[b].score })
		for _, s := range ranked[target:] {
			keep[s.idx] = true
		}
	default: // DropRandom; Validate rejects every other value
		for i := range edges {
			if rng.Float64() >= frac {
				keep[i] = true
			}
		}
	}
	return keep
}
