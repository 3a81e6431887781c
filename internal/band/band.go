// Package band materialises MEGA's diagonal attention representation from a
// traversal result: the reordered adjacency matrix whose edges all fall
// within a band of half-width ω around the diagonal (Figure 7), plus the
// bookkeeping needed to run attention over it — per-offset edge masks,
// original-edge indices for edge features, and the duplicate-position map
// used to synchronise nodes that appear several times in the path.
//
// During attention, position i aggregates from positions i±1 .. i±ω; the
// per-offset layout means each offset is one shifted, fully dense,
// sequential sweep over the path — the access pattern that coalesces on a
// GPU and that the gpusim substrate rewards.
package band

import (
	"errors"
	"fmt"

	"mega/internal/graph"
	"mega/internal/traverse"
)

// Rep is a path/band representation of one graph.
type Rep struct {
	// Path is the vertex visiting order (length L, entries may repeat).
	Path []graph.NodeID
	// Window is the band half-width ω.
	Window int
	// NumNodes is the original vertex count n.
	NumNodes int

	// Mask[o-1][i] reports that positions i and i+o are connected by a
	// real original edge, for offset o in [1, ω] and i in [0, L-o).
	Mask [][]bool
	// EdgeID[o-1][i] is the original COO edge index behind Mask[o-1][i],
	// or -1 where the mask is false.
	EdgeID [][]int32

	// Positions[v] lists the path positions where original vertex v
	// appears (empty for vertices missing from a partial-coverage path).
	Positions [][]int32

	// CoveredEdges counts distinct original edges captured by the band.
	CoveredEdges int
	// TotalEdges is the graph's edge count (after any dropping).
	TotalEdges int
}

// ErrWindowTooSmall is returned when a non-positive window is requested.
var ErrWindowTooSmall = errors.New("band: window must be >= 1")

// Build materialises the band representation of g induced by a traversal
// result. The band half-width defaults to the traversal's window; a wider
// window captures more edges at higher attention cost.
func Build(g *graph.Graph, res *traverse.Result, window int) (*Rep, error) {
	if window == 0 {
		window = res.Window
	}
	if window < 1 {
		return nil, fmt.Errorf("%w: %d", ErrWindowTooSmall, window)
	}
	path := res.Path
	L, n := len(path), g.NumNodes()
	rep := &Rep{
		Path:       append([]graph.NodeID(nil), path...),
		Window:     window,
		NumNodes:   n,
		Mask:       make([][]bool, window),
		EdgeID:     make([][]int32, window),
		Positions:  make([][]int32, n),
		TotalEdges: g.NumEdges(),
	}

	cells := 0
	for o := 1; o <= window; o++ {
		cells += max(L-o, 0)
	}
	// One backing array each for Positions, Mask and EdgeID, cut into
	// rows: Positions at each vertex's appearance count.
	posBuf, maskBuf, eidBuf := make([]int32, L), make([]bool, cells), make([]int32, cells)
	starts := make([]int32, n+1)
	for _, v := range path {
		starts[v+1]++
	}
	for v := 0; v < n; v++ {
		starts[v+1] += starts[v]
		if lo, hi := starts[v], starts[v+1]; hi > lo {
			rep.Positions[v] = posBuf[lo:lo:hi]
		}
	}
	for i, v := range path {
		rep.Positions[v] = append(rep.Positions[v], int32(i))
	}
	for i := range eidBuf {
		eidBuf[i] = -1
	}
	for o := 1; o <= window; o++ {
		size := max(L-o, 0)
		rep.Mask[o-1], rep.EdgeID[o-1] = maskBuf[:size:size], eidBuf[:size:size]
		maskBuf, eidBuf = maskBuf[size:], eidBuf[size:]
	}
	covered := make([]bool, g.NumEdges())
	// adj[w].row == i+1 says w is adjacent to path[i], through edge
	// adj[w].eid: one pass over path[i]'s row answers all of position i's
	// pairs.
	adj := make([]struct{ row, eid int32 }, n)
	for i, u := range path {
		last := min(window, L-1-i)
		// Descending, so that among parallel edges the row's first wins.
		row, eids := g.Neighbors(u), g.NeighborEdges(u)
		for k := len(row) - 1; k >= 0; k-- {
			adj[row[k]].row, adj[row[k]].eid = int32(i+1), eids[k]
		}
		for o := 1; o <= last; o++ {
			v := path[i+o]
			if v == u || adj[v].row != int32(i+1) {
				continue
			}
			e := adj[v].eid
			rep.Mask[o-1][i], rep.EdgeID[o-1][i] = true, e
			if !covered[e] {
				covered[e] = true
				rep.CoveredEdges++
			}
		}
	}
	return rep, nil
}

// Len returns the path length L.
func (r *Rep) Len() int { return len(r.Path) }

// Expansion returns L / n, the memory blow-up of the representation.
func (r *Rep) Expansion() float64 {
	if r.NumNodes == 0 {
		return 1
	}
	return float64(len(r.Path)) / float64(r.NumNodes)
}

// BandCoverage returns the fraction of original edges captured inside the
// band (1 if the graph has no edges). The traversal walks edges
// consecutively (offset 1), so BandCoverage is always at least the walked
// coverage and typically higher: non-consecutive path neighbours within ω
// positions are captured for free.
func (r *Rep) BandCoverage() float64 {
	if r.TotalEdges == 0 {
		return 1
	}
	return float64(r.CoveredEdges) / float64(r.TotalEdges)
}

// MissingEdges returns the original COO edge indices that fall outside the
// band. These are the edges diagonal attention cannot see; the Figure 8
// isomorphism experiment quantifies their structural impact.
func (r *Rep) MissingEdges() []int32 {
	present := make([]bool, r.TotalEdges)
	for _, eids := range r.EdgeID {
		for _, e := range eids {
			if e >= 0 {
				present[e] = true
			}
		}
	}
	var missing []int32
	for e, ok := range present {
		if !ok {
			missing = append(missing, int32(e))
		}
	}
	return missing
}

// InducedGraph projects the band back to an original-ID graph: one vertex
// per original vertex, one edge per *captured* original edge, optionally
// plus the virtual transitions the traversal introduced (consecutive path
// entries not connected in the original graph). With includeVirtual=false
// this is exactly what diagonal attention aggregates over — the masked
// band excludes virtual pairs; the WL comparison of Figure 8 uses that
// form. Pass includeVirtual=true to audit how much hypothetical structure
// the virtual transitions would add.
func (r *Rep) InducedGraph(res *traverse.Result, includeVirtual bool) (*graph.Graph, error) {
	seen := make(map[[2]graph.NodeID]bool)
	var edges []graph.Edge
	add := func(u, v graph.NodeID) {
		if u == v {
			return
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		key := [2]graph.NodeID{a, b}
		if seen[key] {
			return
		}
		seen[key] = true
		edges = append(edges, graph.Edge{Src: a, Dst: b})
	}
	for o := 1; o <= r.Window; o++ {
		for i, m := range r.Mask[o-1] {
			if m {
				add(r.Path[i], r.Path[i+o])
			}
		}
	}
	if includeVirtual {
		for i := 1; i < len(res.Path); i++ {
			if res.Virtual[i] {
				add(res.Path[i-1], res.Path[i])
			}
		}
	}
	return graph.New(r.NumNodes, edges, false)
}

// PositionGraph materialises the band at position granularity: one vertex
// per path position, one edge per masked band pair. Aggregation over this
// graph is what each attention layer literally computes before duplicate
// synchronisation; comparing its multi-hop WL labels against the original
// graph quantifies the structural cost of node revisits (Figure 8's
// hop-count fluctuation).
func (r *Rep) PositionGraph() (*graph.Graph, error) {
	var edges []graph.Edge
	for o := 1; o <= r.Window; o++ {
		for i, m := range r.Mask[o-1] {
			if m {
				edges = append(edges, graph.Edge{Src: graph.NodeID(i), Dst: graph.NodeID(i + o)})
			}
		}
	}
	return graph.New(len(r.Path), edges, false)
}

// FirstAppearance returns, for each original vertex, its first path
// position (-1 for vertices missing from a partial-coverage path). Used to
// project position-level WL labels back to nodes.
func (r *Rep) FirstAppearance() []int32 {
	out := make([]int32, r.NumNodes)
	for v := range out {
		if len(r.Positions[v]) > 0 {
			out[v] = r.Positions[v][0]
		} else {
			out[v] = -1
		}
	}
	return out
}

// SyncGroups returns the duplicate groups: for every original vertex with
// more than one path appearance, its position list. The attention engines
// average embeddings across each group after every layer so duplicates stay
// consistent; the cost is charged to the profiler as a sync kernel.
func (r *Rep) SyncGroups() [][]int32 {
	var groups [][]int32
	for _, pos := range r.Positions {
		if len(pos) > 1 {
			groups = append(groups, pos)
		}
	}
	return groups
}

// EdgeRefs returns, for every original edge, the receiver positions of the
// directed attention pairs that read the edge's feature, in the canonical
// pair-enumeration order shared by the attention engines and the shard
// planner: offset o ascending, band index i ascending, each masked slot
// expanding to the low-position receiver then the high-position receiver.
// The first entry of a list is therefore the edge's owning position under
// the shard protocol (the chunk of the first referencing pair owns the
// edge's fold); edges outside the band get empty lists.
func (r *Rep) EdgeRefs() [][]int32 {
	refs := make([][]int32, r.TotalEdges)
	for o := 1; o <= r.Window; o++ {
		mask, eids := r.Mask[o-1], r.EdgeID[o-1]
		for i, m := range mask {
			if !m {
				continue
			}
			e := eids[i]
			refs[e] = append(refs[e], int32(i), int32(i+o))
		}
	}
	return refs
}

// FromGraph is the one-call convenience used by the public API and the
// examples: run the traversal with the given options and build the band
// representation at the traversal's window.
func FromGraph(g *graph.Graph, opts traverse.Options) (*Rep, *traverse.Result, error) {
	res, err := traverse.Run(g, opts)
	if err != nil {
		return nil, nil, err
	}
	rep, err := Build(res.Graph, res, 0)
	if err != nil {
		return nil, nil, err
	}
	return rep, res, nil
}
