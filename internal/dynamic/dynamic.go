// Package dynamic maintains a MEGA path representation under streaming
// edge insertions and deletions — the latency-constrained scenario of the
// paper's discussion (§IV-B8: "MEGA can be applied with DYGAT, facilitates
// real-time stroke classification").
//
// Every mutation batch is one rebuild, and one pure function: Apply
// validates the batch against a graph as a whole, builds the successor
// edge list, and preprocesses the successor from scratch (traverse.Run,
// then band.Build). Its Rep/Result pair is therefore the from-scratch
// preprocess of the successor by construction, so fused kernels, the shard
// engine and the serving cache consume it with no caveats (predictions
// match a fresh preprocess bit for bit), and a k-mutation batch costs one
// preprocess rather than k. A caller that already stores reps (the serving
// cache) keeps no other state; Maintainer follows one lineage for callers
// that do not. An incremental repair (replay
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

// Errors returned by Apply and the Maintainer.
var (
	ErrVertexRange = errors.New("dynamic: vertex out of range")
	ErrSelfLoop    = errors.New("dynamic: self loops not supported")
	ErrEdgeExists  = errors.New("dynamic: edge already present")
	ErrEdgeMissing = errors.New("dynamic: edge not present")
	// ErrUnsupported marks graphs or options outside the package's
	// contract: directed graphs, duplicate or self-loop edges, and
	// edge-dropping or sparsifying traversals. Both samplers decide over
	// the whole edge list (dropping draws per COO position, sparsifying
	// scores every edge's effective resistance in the whole graph), so one
	// mutation can change which unrelated edges survive: successive reps
	// of a lineage would not share a sampled topology, and what an update
	// should keep stable there is undefined.
	ErrUnsupported = errors.New("dynamic: unsupported configuration")
)

// Policy has no fields: every batch is one rebuild, so there is nothing to
// tune. It remains only for benchmark/trace.go, which passes Policy{} to
// NewMaintainerPolicy.
type Policy struct{}

// Supported reports whether g and opts are inside the package's contract
// (ErrUnsupported otherwise). The graph must be simple, so its own
// adjacency index answers "is {u, v} live, and at which COO index" for
// every mutation.
func Supported(g *graph.Graph, opts traverse.Options) error {
	if g.Directed() {
		return fmt.Errorf("%w: directed graph", ErrUnsupported)
	}
	if opts.DropEdges != 0 {
		return fmt.Errorf("%w: edge dropping", ErrUnsupported)
	}
	if opts.SparsifyFraction != 0 && opts.SparsifyFraction != 1 {
		return fmt.Errorf("%w: sparsification", ErrUnsupported)
	}
	return nonSimple(g)
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

func canon(u, v graph.NodeID) [2]graph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

// Apply applies all removals, then all insertions, to g as one atomic
// group and preprocesses the successor graph from scratch under opts. It
// is pure: g and everything built from it stay untouched, so a rejected
// batch changes nothing, and two batches applied to one base fork.
//
// Every operation is validated against the would-be state first
// (validateBatch). Removals then compact the COO list preserving order
// (IDs above a removed edge shift down), and insertions append as
// (min, max) — the order sequential application produces, so the
// successor's fingerprint does not depend on how a batch is split. The
// successor is rebuilt once, whatever the batch size; res.Graph is the
// successor graph. An empty batch rebuilds nothing and returns nil, nil,
// nil.
func Apply(g *graph.Graph, opts traverse.Options, removes, adds [][2]graph.NodeID) (*band.Rep, *traverse.Result, error) {
	if err := Supported(g, opts); err != nil {
		return nil, nil, err
	}
	if err := validateBatch(g, removes, adds); err != nil {
		return nil, nil, err
	}
	if len(removes)+len(adds) == 0 {
		return nil, nil, nil
	}
	live := g.NumEdges()
	victim := make([]bool, live)
	for _, e := range removes {
		eid, _ := g.EdgeIndex(e[0], e[1]) // live: validateBatch passed
		victim[eid] = true
	}
	edges := make([]graph.Edge, 0, live-len(removes)+len(adds))
	for i := 0; i < live; i++ {
		if !victim[i] {
			edges = append(edges, g.EdgeAt(i))
		}
	}
	for _, e := range adds {
		k := canon(e[0], e[1])
		edges = append(edges, graph.Edge{Src: k[0], Dst: k[1]})
	}
	next, err := graph.New(g.NumNodes(), edges, false)
	if err != nil {
		return nil, nil, err
	}
	return band.FromGraph(next, opts)
}

// validateBatch checks a batch against g without applying it. Removals
// precede insertions, so removing an edge inserted by the same batch is
// invalid, while re-inserting an edge the batch removes is fine.
func validateBatch(g *graph.Graph, removes, adds [][2]graph.NodeID) error {
	removed := make(map[[2]graph.NodeID]bool, len(removes))
	for _, e := range removes {
		if err := checkVertices(g, e[0], e[1]); err != nil {
			return err
		}
		key := canon(e[0], e[1])
		if !g.HasEdge(e[0], e[1]) || removed[key] {
			return fmt.Errorf("%w: (%d,%d)", ErrEdgeMissing, e[0], e[1])
		}
		removed[key] = true
	}
	added := make(map[[2]graph.NodeID]bool, len(adds))
	for _, e := range adds {
		if err := checkVertices(g, e[0], e[1]); err != nil {
			return err
		}
		key := canon(e[0], e[1])
		if g.HasEdge(e[0], e[1]) && !removed[key] {
			return fmt.Errorf("%w: (%d,%d)", ErrEdgeExists, e[0], e[1])
		}
		if added[key] {
			return fmt.Errorf("%w: (%d,%d) twice in batch", ErrEdgeExists, e[0], e[1])
		}
		added[key] = true
	}
	return nil
}

func checkVertices(g *graph.Graph, u, v graph.NodeID) error {
	if n := g.NumNodes(); u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, u, v, n)
	}
	if u == v {
		return ErrSelfLoop
	}
	return nil
}

// Maintainer keeps one graph and its path representation in sync under
// updates: each batch is Apply on the live graph, and a successful one is
// committed. All published state (Rep, Result, Graph) is immutable, so a
// snapshot taken before an update stays internally consistent forever. A
// Maintainer is not safe for concurrent use.
type Maintainer struct {
	opts traverse.Options
	g    *graph.Graph
	// fp caches g's fingerprint (a full hash over the edge list) from the
	// first Fingerprint call after a commit until the next commit.
	fp      graph.Fingerprint
	fpValid bool

	rep *band.Rep
	res *traverse.Result
}

// NewMaintainer traverses g once and starts maintaining it.
func NewMaintainer(g *graph.Graph, opts traverse.Options) (*Maintainer, error) {
	if err := Supported(g, opts); err != nil {
		return nil, err
	}
	rep, res, err := band.FromGraph(g, opts)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{opts: opts}
	m.commit(rep, res)
	return m, nil
}

// NewMaintainerPolicy is NewMaintainer. It remains only for
// benchmark/trace.go.
func NewMaintainerPolicy(g *graph.Graph, opts traverse.Options, _ Policy) (*Maintainer, error) {
	return NewMaintainer(g, opts)
}

func (m *Maintainer) commit(rep *band.Rep, res *traverse.Result) {
	m.g = res.Graph
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
func (m *Maintainer) NumNodes() int { return m.g.NumNodes() }

// NumEdges returns the live edge count.
func (m *Maintainer) NumEdges() int { return m.g.NumEdges() }

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

// ApplyBatch is Apply on the live graph, committed on success: a rejected
// batch leaves the maintainer untouched. The returned slice holds the
// batch's one Repair (nil for an empty batch).
func (m *Maintainer) ApplyBatch(removes, adds [][2]graph.NodeID) ([]Repair, error) {
	rep, res, err := Apply(m.g, m.opts, removes, adds)
	if err != nil || rep == nil {
		return nil, err
	}
	m.commit(rep, res)
	return []Repair{{Kind: RepairRebuild, PathRows: len(res.Path)}}, nil
}
