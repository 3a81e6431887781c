package mega

import (
	"mega/internal/dynamic"
	"mega/internal/hetero"
	"mega/internal/reorder"
	"mega/internal/traverse"
)

// Extension surface: reordering baselines, heterogeneous multi-path
// layouts, and dynamic path maintenance (see DESIGN.md "extensions").

// ReorderPolicy selects a node-renumbering baseline.
type ReorderPolicy = reorder.Policy

// Reordering policies (GNNAdvisor-style locality baselines, §II-B2).
const (
	ReorderDegree = reorder.DegreeSort
	ReorderBFS    = reorder.BFSOrder
	ReorderRCM    = reorder.RCM
)

// ReorderGraph renumbers g under the policy, returning the relabelled graph
// and the permutation perm[old] = new.
func ReorderGraph(g *Graph, policy ReorderPolicy) (*Graph, []NodeID, error) {
	return reorder.Apply(g, policy)
}

// Bandwidth returns the adjacency bandwidth max|u−v| of a labelling.
func Bandwidth(g *Graph) int { return reorder.Bandwidth(g) }

// Drop strategies for TraverseOptions.DropStrategy.
const (
	// DropRandom removes a uniform random edge fraction (§IV-B5).
	DropRandom = traverse.DropRandom
	// DropRedundant removes high degree-product edges first (the
	// SparseGAT-inspired policy of §IV-B8).
	DropRedundant = traverse.DropRedundant
)

// TypedGraph is a vertex-typed graph for heterogeneous workloads.
type TypedGraph = hetero.TypedGraph

// MultiRep is the HAN-style hierarchical multi-path representation.
type MultiRep = hetero.MultiRep

// NewTypedGraph wraps a graph with per-vertex types.
func NewTypedGraph(g *Graph, nodeType []int32, numTypes int) (*TypedGraph, error) {
	return hetero.NewTypedGraph(g, nodeType, numTypes)
}

// BuildMultiPath traverses each node type into its own path (§IV-B8:
// "multiple paths to cover distinct node types, subsequently merging
// hierarchically").
func BuildMultiPath(tg *TypedGraph, opts TraverseOptions) (*MultiRep, error) {
	return hetero.BuildMultiPath(tg, opts)
}

// Maintainer keeps a path representation current under streaming edge
// updates (the §IV-B8 latency-constrained scenario).
type Maintainer = dynamic.Maintainer

// Repair reports how the Maintainer absorbed one update. Every update is
// one rebuild of the mutated graph; PathRows is the path length after it.
type Repair = dynamic.Repair

// NewMaintainer traverses g once and maintains its representation under
// AddEdge/RemoveEdge.
func NewMaintainer(g *Graph, opts TraverseOptions) (*Maintainer, error) {
	return dynamic.NewMaintainer(g, opts)
}
