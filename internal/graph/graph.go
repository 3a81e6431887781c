// Package graph provides the graph substrate used throughout MEGA: a
// coordinate-format (COO) edge list with an optional compressed sparse row
// (CSR) index, degree statistics, block-diagonal batching for GNN training,
// and synthetic generators for the evaluation workloads.
//
// Graphs are stored undirected by default: an undirected edge {u, v} is kept
// once in the COO list and expanded to both directions in the CSR index,
// matching the paper's convention ("we assume the graph to be undirected ...
// with minor adjustments needed for directed graphs", §III-B).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a vertex within a single graph. IDs are dense in
// [0, NumNodes).
type NodeID = int32

// Edge is a single (source, destination) vertex pair in coordinate format.
type Edge struct {
	Src NodeID
	Dst NodeID
}

// Graph is an in-memory graph in coordinate format with an optional CSR
// index built on demand. The zero value is an empty graph.
//
// Node and edge feature matrices are deliberately *not* stored here; they
// live in the tensor layer, indexed by NodeID, so that the graph substrate
// stays a pure topology structure.
type Graph struct {
	numNodes int
	edges    []Edge // undirected edges stored once, or directed edges
	directed bool

	// CSR index, built lazily by buildCSR.
	csrBuilt bool
	rowPtr   []int32  // len numNodes+1
	colIdx   []NodeID // len 2*len(edges) for undirected graphs
	// edgePos[i] is the index into edges of the undirected edge that
	// produced colIdx[i]; used to carry edge features through aggregation.
	edgePos []int32
}

// Common validation errors returned by the constructors.
var (
	ErrNegativeNodes  = errors.New("graph: number of nodes must be non-negative")
	ErrEdgeOutOfRange = errors.New("graph: edge endpoint out of range")
)

// New constructs a graph with numNodes vertices and the given edges.
// Undirected edges must be listed once; duplicate and self-loop edges are
// permitted (some generators use self loops) but not deduplicated.
func New(numNodes int, edges []Edge, directed bool) (*Graph, error) {
	if numNodes < 0 {
		return nil, ErrNegativeNodes
	}
	for _, e := range edges {
		if e.Src < 0 || int(e.Src) >= numNodes || e.Dst < 0 || int(e.Dst) >= numNodes {
			return nil, fmt.Errorf("%w: (%d,%d) with n=%d", ErrEdgeOutOfRange, e.Src, e.Dst, numNodes)
		}
	}
	g := &Graph{numNodes: numNodes, directed: directed}
	g.edges = make([]Edge, len(edges))
	copy(g.edges, edges)
	return g, nil
}

// MustNew is New for statically known-good inputs (tests, generators).
// It panics on invalid input.
func MustNew(numNodes int, edges []Edge, directed bool) *Graph {
	g, err := New(numNodes, edges, directed)
	if err != nil {
		panic(err)
	}
	return g
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns the number of stored edges (undirected edges count once).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Edges returns a copy of the COO edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// EdgeAt returns the i-th stored edge.
func (g *Graph) EdgeAt(i int) Edge { return g.edges[i] }

// Sparsity returns |E_directed| / (n*(n-1)), the ratio of present directed
// edges to the fully connected count, as used in Table II. Self loops are
// excluded from the numerator. Returns 0 for graphs with fewer than 2 nodes.
func (g *Graph) Sparsity() float64 {
	n := g.numNodes
	if n < 2 {
		return 0
	}
	m := 0
	for _, e := range g.edges {
		if e.Src != e.Dst {
			m++
		}
	}
	if !g.directed {
		m *= 2
	}
	return float64(m) / float64(n*(n-1))
}

// buildCSR constructs the CSR adjacency index. For undirected graphs each
// stored edge contributes both directions.
func (g *Graph) buildCSR() {
	if g.csrBuilt {
		return
	}
	n := g.numNodes
	deg := make([]int32, n)
	for _, e := range g.edges {
		deg[e.Src]++
		if !g.directed && e.Src != e.Dst {
			deg[e.Dst]++
		}
	}
	g.rowPtr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		g.rowPtr[i+1] = g.rowPtr[i] + deg[i]
	}
	total := g.rowPtr[n]
	g.colIdx = make([]NodeID, total)
	g.edgePos = make([]int32, total)
	cursor := make([]int32, n)
	copy(cursor, g.rowPtr[:n])
	for i, e := range g.edges {
		g.colIdx[cursor[e.Src]] = e.Dst
		g.edgePos[cursor[e.Src]] = int32(i)
		cursor[e.Src]++
		if !g.directed && e.Src != e.Dst {
			g.colIdx[cursor[e.Dst]] = e.Src
			g.edgePos[cursor[e.Dst]] = int32(i)
			cursor[e.Dst]++
		}
	}
	// Sort each row for deterministic iteration and binary-search lookups.
	var rows rowSorter // one value for every row: sort.Sort boxes its argument
	for v := 0; v < n; v++ {
		lo, hi := g.rowPtr[v], g.rowPtr[v+1]
		rows.row, rows.pos = g.colIdx[lo:hi], g.edgePos[lo:hi]
		sort.Sort(&rows)
	}
	g.csrBuilt = true
}

type rowSorter struct {
	row []NodeID
	pos []int32
}

func (s *rowSorter) Len() int           { return len(s.row) }
func (s *rowSorter) Less(i, j int) bool { return s.row[i] < s.row[j] }
func (s *rowSorter) Swap(i, j int) {
	s.row[i], s.row[j] = s.row[j], s.row[i]
	s.pos[i], s.pos[j] = s.pos[j], s.pos[i]
}

// Neighbors returns the adjacency row of v (sorted, possibly with
// duplicates if parallel edges exist). The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	g.buildCSR()
	return g.colIdx[g.rowPtr[v]:g.rowPtr[v+1]]
}

// NeighborEdges returns, aligned with Neighbors(v), the index into the COO
// edge list of the edge connecting v to each neighbor. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) NeighborEdges(v NodeID) []int32 {
	g.buildCSR()
	return g.edgePos[g.rowPtr[v]:g.rowPtr[v+1]]
}

// Degree returns the degree of v (out-degree for directed graphs).
func (g *Graph) Degree(v NodeID) int {
	g.buildCSR()
	return int(g.rowPtr[v+1] - g.rowPtr[v])
}

// Degrees returns the degree of every vertex.
func (g *Graph) Degrees() []int {
	g.buildCSR()
	out := make([]int, g.numNodes)
	for v := 0; v < g.numNodes; v++ {
		out[v] = int(g.rowPtr[v+1] - g.rowPtr[v])
	}
	return out
}

// MeanDegree returns the average vertex degree.
func (g *Graph) MeanDegree() float64 {
	if g.numNodes == 0 {
		return 0
	}
	g.buildCSR()
	return float64(g.rowPtr[g.numNodes]) / float64(g.numNodes)
}

// EdgeIndex returns the COO index of the edge behind the first entry for
// u in v's sorted adjacency row, and whether there is one. Among parallel
// edges it names the one buildCSR's row sort put first.
func (g *Graph) EdgeIndex(v, u NodeID) (int32, bool) {
	g.buildCSR()
	lo, end := g.rowPtr[v], g.rowPtr[v+1]
	for hi := end; lo < hi; {
		if mid := (lo + hi) / 2; g.colIdx[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && g.colIdx[lo] == u {
		return g.edgePos[lo], true
	}
	return -1, false
}

// HasEdge reports whether v has u in its adjacency row.
func (g *Graph) HasEdge(v, u NodeID) bool {
	_, ok := g.EdgeIndex(v, u)
	return ok
}

// ConnectedComponents returns a component label per vertex and the number of
// components, treating edges as undirected.
func (g *Graph) ConnectedComponents() (labels []int, count int) {
	labels = make([]int, g.numNodes)
	for i := range labels {
		labels[i] = -1
	}
	var stack []NodeID
	for start := 0; start < g.numNodes; start++ {
		if labels[start] != -1 {
			continue
		}
		labels[start] = count
		stack = append(stack[:0], NodeID(start))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.undirectedNeighbors(v) {
				if labels[u] == -1 {
					labels[u] = count
					stack = append(stack, u)
				}
			}
		}
		count++
	}
	return labels, count
}

// undirectedNeighbors returns neighbors treating the graph as undirected;
// for directed graphs this is an O(m) scan fallback used only by component
// analysis.
func (g *Graph) undirectedNeighbors(v NodeID) []NodeID {
	if !g.directed {
		return g.Neighbors(v)
	}
	var out []NodeID
	for _, e := range g.edges {
		if e.Src == v {
			out = append(out, e.Dst)
		}
		if e.Dst == v {
			out = append(out, e.Src)
		}
	}
	return out
}

// Clone returns a deep copy of the graph (without the CSR index, which is
// rebuilt on demand).
func (g *Graph) Clone() *Graph {
	out := &Graph{numNodes: g.numNodes, directed: g.directed}
	out.edges = make([]Edge, len(g.edges))
	copy(out.edges, g.edges)
	return out
}
