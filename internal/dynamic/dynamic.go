// Package dynamic maintains a MEGA path representation under streaming
// edge insertions and deletions — the latency-constrained scenario of the
// paper's discussion (§IV-B8: "MEGA can be applied with DYGAT, facilitates
// real-time stroke classification").
//
// Every mutation batch is one rebuild. The batch is validated against the
// live graph as a whole, applied to a successor edge list, and the
// successor is preprocessed from scratch: traverse.Run, then band.Build.
// The maintainer's Rep/Result pair is therefore the from-scratch
// preprocess of its live graph by construction, so fused kernels, the
// shard engine and the serving cache consume it with no caveats
// (predictions match a fresh preprocess bit for bit), and a k-mutation
// batch costs one preprocess rather than k. An incremental repair (replay
// the path prefix the mutation cannot reach, splice the band) measured no
// cheaper than this rebuild; DESIGN.md, "Dynamic path maintenance", has the
// numbers.
package dynamic

import (
	"errors"
	"fmt"

	"mega/internal/band"
	"mega/internal/graph"
	"mega/internal/traverse"
)

// RepairKind classifies how an update was absorbed.
type RepairKind int

// Repair kinds.
const (
	// RepairSplice named the incremental prefix-replay repair, which no
	// longer exists: no Repair carries it. It remains only for
	// benchmark/trace.go, which still tells splices from rebuilds.
	RepairSplice RepairKind = iota + 1
	// RepairRebuild re-traversed the whole graph; every repair is one.
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

// Repair describes how one batch was applied. Kind and PrefixRows remain
// only for benchmark/trace.go: Kind is always RepairRebuild and PrefixRows
// always 0.
type Repair struct {
	Kind       RepairKind
	PrefixRows int
	// PathRows is the path length after the repair.
	PathRows int
}

// Errors returned by the Maintainer.
var (
	ErrVertexRange = errors.New("dynamic: vertex out of range")
	ErrSelfLoop    = errors.New("dynamic: self loops not supported")
	ErrEdgeExists  = errors.New("dynamic: edge already present")
	ErrEdgeMissing = errors.New("dynamic: edge not present")
	// ErrUnsupported marks graphs or options outside the maintainer's
	// contract: directed graphs, duplicate or self-loop edges, and
	// edge-dropping or sparsifying traversals. Both samplers decide over
	// the whole edge list (dropping draws per COO position, sparsifying
	// scores every edge's effective resistance in the whole graph), so one
	// mutation can change which unrelated edges survive: successive reps
	// of a lineage would not share a sampled topology, and what an update
	// should keep stable there is undefined.
	ErrUnsupported = errors.New("dynamic: unsupported configuration")
	// ErrBroken is returned after an internal repair error; the owner
	// should discard the maintainer.
	ErrBroken = errors.New("dynamic: maintainer broken by earlier error")
)

// Policy has no fields: every batch is one rebuild, so there is nothing to
// tune. It remains only for benchmark/trace.go, which passes Policy{} to
// NewMaintainerPolicy.
type Policy struct{}

// Maintainer keeps a graph and its path representation in sync under
// updates. All published state (Rep, Result, Graph) is immutable: repairs
// build fresh representations and swap pointers, so a snapshot taken
// before an update stays internally consistent forever — the copy-on-write
// behaviour the serving cache relies on. A Maintainer is not safe for
// concurrent use; callers serialise access (serve wraps each session in a
// mutex).
type Maintainer struct {
	opts     traverse.Options
	numNodes int
	g        *graph.Graph
	// fp caches g's fingerprint (a full hash over the edge list) from the
	// first Fingerprint call after a commit until the next commit.
	fp      graph.Fingerprint
	fpValid bool

	rep    *band.Rep
	res    *traverse.Result
	broken bool
}

// NewMaintainer traverses g once and starts maintaining it.
func NewMaintainer(g *graph.Graph, opts traverse.Options) (*Maintainer, error) {
	m, err := newShell(g, opts)
	if err != nil {
		return nil, err
	}
	if _, err := m.rebuild(g); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMaintainerPolicy is NewMaintainer. It remains only for
// benchmark/trace.go.
func NewMaintainerPolicy(g *graph.Graph, opts traverse.Options, _ Policy) (*Maintainer, error) {
	return NewMaintainer(g, opts)
}

// Adopt starts maintaining an already-preprocessed representation without
// re-traversing: rep and res must be the preprocess output for res.Graph
// under exactly opts (the serving cache's PreparedRep contract). The
// adopted structures are treated as immutable and never modified.
func Adopt(rep *band.Rep, res *traverse.Result, opts traverse.Options) (*Maintainer, error) {
	if rep == nil || res == nil || res.Graph == nil {
		return nil, fmt.Errorf("%w: adopt requires a complete prepared rep", ErrUnsupported)
	}
	m, err := newShell(res.Graph, opts)
	if err != nil {
		return nil, err
	}
	m.commit(res.Graph, rep, res)
	return m, nil
}

// newShell validates inputs; the caller supplies the representation. The
// graph is simple, so its own adjacency index answers "is {u, v} live, and
// at which COO index" for every later mutation.
func newShell(g *graph.Graph, opts traverse.Options) (*Maintainer, error) {
	if g.Directed() {
		return nil, fmt.Errorf("%w: directed graph", ErrUnsupported)
	}
	if opts.DropEdges != 0 {
		return nil, fmt.Errorf("%w: edge dropping", ErrUnsupported)
	}
	if opts.SparsifyFraction != 0 && opts.SparsifyFraction != 1 {
		return nil, fmt.Errorf("%w: sparsification", ErrUnsupported)
	}
	if err := nonSimple(g); err != nil {
		return nil, err
	}
	return &Maintainer{opts: opts, numNodes: g.NumNodes()}, nil
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

func (m *Maintainer) commit(g *graph.Graph, rep *band.Rep, res *traverse.Result) {
	m.g = g
	m.fpValid = false
	m.rep = rep
	m.res = res
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

func canon(u, v graph.NodeID) [2]graph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

// AddEdge inserts edge {u, v} and repairs the representation: a
// one-element ApplyBatch.
func (m *Maintainer) AddEdge(u, v graph.NodeID) (Repair, error) {
	return m.applyOne(nil, [][2]graph.NodeID{{u, v}})
}

// RemoveEdge deletes edge {u, v}: a one-element ApplyBatch.
func (m *Maintainer) RemoveEdge(u, v graph.NodeID) (Repair, error) {
	return m.applyOne([][2]graph.NodeID{{u, v}}, nil)
}

func (m *Maintainer) applyOne(removes, adds [][2]graph.NodeID) (Repair, error) {
	repairs, err := m.ApplyBatch(removes, adds)
	if err != nil {
		return Repair{}, err
	}
	return repairs[0], nil
}

// ApplyBatch applies all removals, then all insertions, as one atomic
// group: every operation is validated against the would-be state before
// any is applied, so a rejected batch leaves the maintainer untouched.
//
// Removals compact the COO list preserving order (IDs above a removed edge
// shift down), then insertions append as (min, max) — the order sequential
// application produces, so the successor's fingerprint does not depend on
// how a batch is split. The successor is then rebuilt once, whatever the
// batch size: the returned slice holds that one Repair (nil for an empty
// batch).
func (m *Maintainer) ApplyBatch(removes, adds [][2]graph.NodeID) ([]Repair, error) {
	if err := m.ValidateBatch(removes, adds); err != nil {
		return nil, err
	}
	if len(removes)+len(adds) == 0 {
		return nil, nil
	}
	live := m.g.NumEdges()
	victim := make([]bool, live)
	for _, e := range removes {
		eid, _ := m.g.EdgeIndex(e[0], e[1]) // live: ValidateBatch passed
		victim[eid] = true
	}
	edges := make([]graph.Edge, 0, live-len(removes)+len(adds))
	for i := 0; i < live; i++ {
		if !victim[i] {
			edges = append(edges, m.g.EdgeAt(i))
		}
	}
	for _, e := range adds {
		k := canon(e[0], e[1])
		edges = append(edges, graph.Edge{Src: k[0], Dst: k[1]})
	}
	g, err := graph.New(m.numNodes, edges, false)
	if err != nil {
		m.broken = true
		return nil, err
	}
	r, err := m.rebuild(g)
	if err != nil {
		m.broken = true
		return nil, err
	}
	return []Repair{r}, nil
}

// rebuild preprocesses g from scratch and commits the result.
func (m *Maintainer) rebuild(g *graph.Graph) (Repair, error) {
	rep, res, err := band.FromGraph(g, m.opts)
	if err != nil {
		return Repair{}, err
	}
	m.commit(res.Graph, rep, res)
	return Repair{Kind: RepairRebuild, PathRows: len(res.Path)}, nil
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
		if err := m.validateRemove(e[0], e[1], removed); err != nil {
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

func (m *Maintainer) validateRemove(u, v graph.NodeID, removed map[[2]graph.NodeID]bool) error {
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
