package graph

import (
	"fmt"
	"math/rand"
)

// Generators for the synthetic workloads used across the evaluation. All
// generators are deterministic given the *rand.Rand they receive.

// ErdosRenyi samples an undirected G(n, p) graph: each of the n(n-1)/2
// vertex pairs is an edge independently with probability p.
func ErdosRenyi(rng *rand.Rand, n int, p float64) *Graph {
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, Edge{Src: NodeID(u), Dst: NodeID(v)})
			}
		}
	}
	return MustNew(n, edges, false)
}

// ErdosRenyiM samples an undirected graph with exactly m distinct edges
// chosen uniformly among vertex pairs (no self loops).
func ErdosRenyiM(rng *rand.Rand, n, m int) *Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	seen := make(map[[2]NodeID]bool, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]NodeID{u, v}
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, Edge{Src: u, Dst: v})
	}
	return MustNew(n, edges, false)
}

// BarabasiAlbert grows a preferential-attachment graph: starting from a
// clique of m0 = m vertices, each new vertex attaches to m existing
// vertices with probability proportional to their degree. Produces the
// skewed (power-law) degree distributions §III-B calls out as the hard case
// for workload balance.
func BarabasiAlbert(rng *rand.Rand, n, m int) *Graph {
	if m < 1 {
		m = 1
	}
	if n <= m {
		return Complete(n)
	}
	var edges []Edge
	// Repeated-endpoint list: sampling uniformly from it is sampling
	// proportionally to degree.
	var endpoints []NodeID
	for u := 0; u < m; u++ {
		for v := u + 1; v < m; v++ {
			edges = append(edges, Edge{Src: NodeID(u), Dst: NodeID(v)})
			endpoints = append(endpoints, NodeID(u), NodeID(v))
		}
	}
	// chosen holds the new vertex's targets in draw order: the edge list
	// and the endpoint list the later draws sample from must be a function
	// of the seed alone.
	chosen := make([]NodeID, 0, m)
	for v := m; v < n; v++ {
		chosen = chosen[:0]
	draw:
		for len(chosen) < m {
			var t NodeID
			if len(endpoints) == 0 {
				t = NodeID(rng.Intn(v))
			} else {
				t = endpoints[rng.Intn(len(endpoints))]
			}
			for _, c := range chosen {
				if c == t {
					continue draw
				}
			}
			chosen = append(chosen, t)
		}
		for _, t := range chosen {
			edges = append(edges, Edge{Src: NodeID(v), Dst: t})
			endpoints = append(endpoints, NodeID(v), t)
		}
	}
	return MustNew(n, edges, false)
}

// Complete returns the fully connected undirected graph on n vertices, the
// "hypothetical fully connected graph" global attention operates on (§I).
func Complete(n int) *Graph {
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{Src: NodeID(u), Dst: NodeID(v)})
		}
	}
	return MustNew(n, edges, false)
}

// Cycle returns the n-cycle.
func Cycle(n int) *Graph {
	edges := make([]Edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, Edge{Src: NodeID(v), Dst: NodeID((v + 1) % n)})
	}
	if n == 2 {
		edges = edges[:1]
	}
	return MustNew(n, edges, false)
}

// Path returns the n-vertex path graph.
func Path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, Edge{Src: NodeID(v), Dst: NodeID(v + 1)})
	}
	return MustNew(n, edges, false)
}

// Circulant returns the circulant graph C_n(skips): vertex v connects to
// v±s (mod n) for every s in skips. CSL(n, R) is Circulant(n, []int{1, R}).
func Circulant(n int, skips []int) (*Graph, error) {
	seen := make(map[[2]NodeID]bool)
	var edges []Edge
	for _, s := range skips {
		if s <= 0 || s >= n {
			return nil, fmt.Errorf("graph: circulant skip %d out of range for n=%d", s, n)
		}
		for v := 0; v < n; v++ {
			u := NodeID(v)
			w := NodeID((v + s) % n)
			a, b := u, w
			if a > b {
				a, b = b, a
			}
			key := [2]NodeID{a, b}
			if a == b || seen[key] {
				continue
			}
			seen[key] = true
			edges = append(edges, Edge{Src: a, Dst: b})
		}
	}
	return New(n, edges, false)
}

// RandomTree returns a uniform random labelled tree on n vertices via a
// random Prüfer-like attachment (each vertex v>0 attaches to a uniformly
// random earlier vertex). Trees are the backbone of the molecular-graph
// generators.
func RandomTree(rng *rand.Rand, n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edges = append(edges, Edge{Src: NodeID(u), Dst: NodeID(v)})
	}
	return MustNew(n, edges, false)
}

// PermuteNodes returns a copy of g with node IDs relabelled by perm
// (perm[old] = new). Used to generate isomorphic dataset instances (e.g.
// CSL class members differing only by labelling).
func PermuteNodes(g *Graph, perm []NodeID) (*Graph, error) {
	if len(perm) != g.NumNodes() {
		return nil, fmt.Errorf("graph: permutation length %d != n %d", len(perm), g.NumNodes())
	}
	edges := make([]Edge, g.NumEdges())
	for i, e := range g.edges {
		edges[i] = Edge{Src: perm[e.Src], Dst: perm[e.Dst]}
	}
	return New(g.NumNodes(), edges, g.Directed())
}

// RandomPermutation returns a uniformly random permutation of [0, n).
func RandomPermutation(rng *rand.Rand, n int) []NodeID {
	perm := make([]NodeID, n)
	for i := range perm {
		perm[i] = NodeID(i)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}
