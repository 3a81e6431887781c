package graph

// Batch merges several graphs into one block-diagonal graph, the standard
// GNN batching scheme: node IDs of graph i are offset by the total node
// count of graphs 0..i-1, so the merged adjacency matrix is block diagonal
// and a single kernel launch covers the whole batch.
type Batch struct {
	// Merged is the block-diagonal union graph.
	Merged *Graph
	// NodeOffset[i] is the first merged NodeID of member graph i;
	// NodeOffset[len] equals Merged.NumNodes().
	NodeOffset []int32
	// EdgeOffset[i] is the first merged COO edge index of member graph i.
	EdgeOffset []int32
	// GraphOf[v] is the member-graph index owning merged node v.
	GraphOf []int32
}

// NewBatch builds a block-diagonal batch from the given member graphs.
// All members must share the same directedness.
func NewBatch(members []*Graph) (*Batch, error) {
	totalN, totalM := 0, 0
	directed := false
	for i, g := range members {
		if i == 0 {
			directed = g.Directed()
		}
		totalN += g.NumNodes()
		totalM += g.NumEdges()
	}
	edges := make([]Edge, 0, totalM)
	nodeOffset := make([]int32, len(members)+1)
	edgeOffset := make([]int32, len(members)+1)
	graphOf := make([]int32, 0, totalN)
	off := int32(0)
	for i, g := range members {
		nodeOffset[i] = off
		edgeOffset[i] = int32(len(edges))
		for _, e := range g.edges {
			edges = append(edges, Edge{Src: e.Src + off, Dst: e.Dst + off})
		}
		for v := 0; v < g.NumNodes(); v++ {
			graphOf = append(graphOf, int32(i))
		}
		off += int32(g.NumNodes())
	}
	nodeOffset[len(members)] = off
	edgeOffset[len(members)] = int32(len(edges))
	merged, err := New(totalN, edges, directed)
	if err != nil {
		return nil, err
	}
	return &Batch{
		Merged:     merged,
		NodeOffset: nodeOffset,
		EdgeOffset: edgeOffset,
		GraphOf:    graphOf,
	}, nil
}

// NumGraphs returns the number of member graphs.
func (b *Batch) NumGraphs() int { return len(b.NodeOffset) - 1 }
