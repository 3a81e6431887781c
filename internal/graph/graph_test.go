package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// paperGraph is the 7-node demonstration graph of Figure 3a. The exact
// topology in the figure is illustrative; this fixture gives tests a small
// irregular graph with a hub.
func paperGraph(t *testing.T) *Graph {
	t.Helper()
	edges := []Edge{
		{0, 1}, {0, 5}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 6}, {5, 6}, {4, 6},
	}
	g, err := New(7, edges, false)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		edges   []Edge
		wantErr bool
	}{
		{name: "empty", n: 0, edges: nil, wantErr: false},
		{name: "negative nodes", n: -1, edges: nil, wantErr: true},
		{name: "edge out of range high", n: 2, edges: []Edge{{0, 2}}, wantErr: true},
		{name: "edge out of range negative", n: 2, edges: []Edge{{-1, 0}}, wantErr: true},
		{name: "valid", n: 3, edges: []Edge{{0, 1}, {1, 2}}, wantErr: false},
		{name: "self loop allowed", n: 2, edges: []Edge{{1, 1}}, wantErr: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.n, tt.edges, false)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%d, %v) error = %v, wantErr %v", tt.n, tt.edges, err, tt.wantErr)
			}
		})
	}
}

func TestNeighborsSortedAndComplete(t *testing.T) {
	g := paperGraph(t)
	want := map[NodeID][]NodeID{
		0: {1, 5},
		1: {0, 2, 3},
		2: {1, 3},
		3: {1, 2, 4, 6},
		4: {3, 6},
		5: {0, 6},
		6: {3, 4, 5},
	}
	for v, wantRow := range want {
		got := g.Neighbors(v)
		if len(got) != len(wantRow) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got, wantRow)
		}
		for i := range got {
			if got[i] != wantRow[i] {
				t.Errorf("Neighbors(%d) = %v, want %v", v, got, wantRow)
				break
			}
		}
	}
}

func TestDegreeAndMeanDegree(t *testing.T) {
	g := paperGraph(t)
	wantDeg := []int{2, 3, 2, 4, 2, 2, 3}
	for v, w := range wantDeg {
		if got := g.Degree(NodeID(v)); got != w {
			t.Errorf("Degree(%d) = %d, want %d", v, got, w)
		}
	}
	wantMean := 18.0 / 7.0
	if got := g.MeanDegree(); got != wantMean {
		t.Errorf("MeanDegree() = %v, want %v", got, wantMean)
	}
}

func TestDegreesMatchesDegree(t *testing.T) {
	g := paperGraph(t)
	degs := g.Degrees()
	for v := 0; v < g.NumNodes(); v++ {
		if degs[v] != g.Degree(NodeID(v)) {
			t.Errorf("Degrees()[%d] = %d, Degree = %d", v, degs[v], g.Degree(NodeID(v)))
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := paperGraph(t)
	if !g.HasEdge(3, 6) || !g.HasEdge(6, 3) {
		t.Error("HasEdge(3,6) should hold in both directions")
	}
	if g.HasEdge(0, 6) {
		t.Error("HasEdge(0,6) should be false")
	}
}

// TestEdgeIndexNamesFirstRowEntry: among parallel edges EdgeIndex must name
// the edge a scan of the row meets first, which is the one the band stores.
func TestEdgeIndexNamesFirstRowEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		edges := make([]Edge, rng.Intn(4*n))
		for i := range edges {
			edges[i] = Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
		}
		g := MustNew(n, edges, false)
		for v := NodeID(0); int(v) < n; v++ {
			for u := NodeID(0); int(u) < n; u++ {
				want, found := int32(-1), false
				for i, w := range g.Neighbors(v) {
					if w == u {
						want, found = g.NeighborEdges(v)[i], true
						break
					}
				}
				if got, ok := g.EdgeIndex(v, u); got != want || ok != found {
					t.Fatalf("trial %d: EdgeIndex(%d,%d) = %d,%v, row scan gives %d,%v", trial, v, u, got, ok, want, found)
				}
			}
		}
	}
}

func TestDirectedCSROneDirection(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}, {1, 2}}, true)
	if got := g.Degree(0); got != 1 {
		t.Errorf("directed out-degree(0) = %d, want 1", got)
	}
	if got := len(g.Neighbors(1)); got != 1 {
		t.Errorf("directed Neighbors(1) len = %d, want 1", got)
	}
	if len(g.Neighbors(2)) != 0 {
		t.Errorf("directed Neighbors(2) = %v, want empty", g.Neighbors(2))
	}
}

func TestNeighborEdgesAlignment(t *testing.T) {
	g := paperGraph(t)
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		nbrs := g.Neighbors(v)
		eids := g.NeighborEdges(v)
		if len(nbrs) != len(eids) {
			t.Fatalf("node %d: %d neighbors but %d edge ids", v, len(nbrs), len(eids))
		}
		for i, u := range nbrs {
			e := g.EdgeAt(int(eids[i]))
			if !((e.Src == v && e.Dst == u) || (e.Src == u && e.Dst == v)) {
				t.Errorf("node %d nbr %d: edge id %d is %v", v, u, eids[i], e)
			}
		}
	}
}

func TestSparsity(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want float64
	}{
		{name: "complete", g: Complete(10), want: 1.0},
		{name: "empty", g: MustNew(10, nil, false), want: 0.0},
		{name: "single node", g: MustNew(1, nil, false), want: 0.0},
		{name: "cycle4", g: Cycle(4), want: 8.0 / 12.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Sparsity(); got != tt.want {
				t.Errorf("Sparsity() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSparsityIgnoresSelfLoops(t *testing.T) {
	g := MustNew(3, []Edge{{0, 0}, {0, 1}}, false)
	want := 2.0 / 6.0
	if got := g.Sparsity(); got != want {
		t.Errorf("Sparsity() = %v, want %v", got, want)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := MustNew(6, []Edge{{0, 1}, {1, 2}, {3, 4}}, false)
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("nodes 0,1,2 should share a component: %v", labels)
	}
	if labels[3] != labels[4] {
		t.Errorf("nodes 3,4 should share a component: %v", labels)
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Errorf("node 5 should be isolated: %v", labels)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := paperGraph(t)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone size mismatch")
	}
	// Mutating the clone's edge list must not affect the original.
	c.edges[0] = Edge{6, 6}
	if g.edges[0] == (Edge{6, 6}) {
		t.Error("clone shares edge storage with original")
	}
}

func TestEdgesReturnsCopy(t *testing.T) {
	g := paperGraph(t)
	es := g.Edges()
	es[0] = Edge{6, 6}
	if g.EdgeAt(0) == (Edge{6, 6}) {
		t.Error("Edges() exposed internal storage")
	}
}

func TestBatchBlockDiagonal(t *testing.T) {
	g1 := Cycle(3)
	g2 := Path(4)
	b, err := NewBatch([]*Graph{g1, g2})
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	if b.Merged.NumNodes() != 7 {
		t.Fatalf("merged nodes = %d, want 7", b.Merged.NumNodes())
	}
	if b.Merged.NumEdges() != g1.NumEdges()+g2.NumEdges() {
		t.Fatalf("merged edges = %d", b.Merged.NumEdges())
	}
	// No cross-graph edges.
	for _, e := range b.Merged.Edges() {
		if (e.Src < 3) != (e.Dst < 3) {
			t.Errorf("cross-graph edge %v", e)
		}
	}
	if lo, hi := b.NodeOffset[1], b.NodeOffset[2]; lo != 3 || hi != 7 {
		t.Errorf("member 1 nodes = [%d,%d), want [3,7)", lo, hi)
	}
	for v := 0; v < 3; v++ {
		if b.GraphOf[v] != 0 {
			t.Errorf("GraphOf[%d] = %d, want 0", v, b.GraphOf[v])
		}
	}
	for v := 3; v < 7; v++ {
		if b.GraphOf[v] != 1 {
			t.Errorf("GraphOf[%d] = %d, want 1", v, b.GraphOf[v])
		}
	}
	if b.NumGraphs() != 2 {
		t.Errorf("NumGraphs = %d, want 2", b.NumGraphs())
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	t.Run("erdos renyi m exact edges", func(t *testing.T) {
		g := ErdosRenyiM(rng, 20, 30)
		if g.NumEdges() != 30 {
			t.Errorf("edges = %d, want 30", g.NumEdges())
		}
	})
	t.Run("erdos renyi m caps at complete", func(t *testing.T) {
		g := ErdosRenyiM(rng, 5, 100)
		if g.NumEdges() != 10 {
			t.Errorf("edges = %d, want 10", g.NumEdges())
		}
	})
	t.Run("complete degree", func(t *testing.T) {
		g := Complete(6)
		for v := 0; v < 6; v++ {
			if g.Degree(NodeID(v)) != 5 {
				t.Errorf("Degree(%d) = %d, want 5", v, g.Degree(NodeID(v)))
			}
		}
	})
	t.Run("cycle degree 2", func(t *testing.T) {
		g := Cycle(9)
		for v := 0; v < 9; v++ {
			if g.Degree(NodeID(v)) != 2 {
				t.Errorf("Degree(%d) = %d, want 2", v, g.Degree(NodeID(v)))
			}
		}
	})
	t.Run("random tree is connected acyclic", func(t *testing.T) {
		g := RandomTree(rng, 25)
		if g.NumEdges() != 24 {
			t.Fatalf("tree edges = %d, want 24", g.NumEdges())
		}
		if _, count := g.ConnectedComponents(); count != 1 {
			t.Errorf("tree components = %d, want 1", count)
		}
	})
	t.Run("barabasi albert connected", func(t *testing.T) {
		g := BarabasiAlbert(rng, 50, 2)
		if _, count := g.ConnectedComponents(); count != 1 {
			t.Errorf("BA components = %d, want 1", count)
		}
		if g.NumNodes() != 50 {
			t.Errorf("BA nodes = %d", g.NumNodes())
		}
	})
	t.Run("circulant CSL shape", func(t *testing.T) {
		g, err := Circulant(41, []int{1, 9})
		if err != nil {
			t.Fatalf("Circulant: %v", err)
		}
		for v := 0; v < 41; v++ {
			if g.Degree(NodeID(v)) != 4 {
				t.Errorf("circulant Degree(%d) = %d, want 4", v, g.Degree(NodeID(v)))
			}
		}
		if g.NumEdges() != 82 {
			t.Errorf("circulant edges = %d, want 82", g.NumEdges())
		}
	})
	t.Run("circulant rejects bad skip", func(t *testing.T) {
		if _, err := Circulant(10, []int{0}); err == nil {
			t.Error("skip 0 should error")
		}
		if _, err := Circulant(10, []int{10}); err == nil {
			t.Error("skip n should error")
		}
	})
}

// TestBarabasiAlbertIsAFunctionOfItsSeed: "seed N" must name one graph.
// The generator once appended each new vertex's edges in map-iteration
// order, which also reordered the endpoint list later draws sample from.
func TestBarabasiAlbertIsAFunctionOfItsSeed(t *testing.T) {
	for _, m := range []int{1, 3} {
		first := BarabasiAlbert(rand.New(rand.NewSource(7)), 200, m).Edges()
		for trial := 0; trial < 5; trial++ {
			again := BarabasiAlbert(rand.New(rand.NewSource(7)), 200, m).Edges()
			if len(again) != len(first) {
				t.Fatalf("m=%d: %d edges, then %d", m, len(first), len(again))
			}
			for i := range first {
				if again[i] != first[i] {
					t.Fatalf("m=%d trial %d: edge %d is %v, first draw gave %v", m, trial, i, again[i], first[i])
				}
			}
		}
	}
}

func TestPermuteNodesPreservesDegreeMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := ErdosRenyiM(rng, 30, 60)
	perm := RandomPermutation(rng, 30)
	pg, err := PermuteNodes(g, perm)
	if err != nil {
		t.Fatalf("PermuteNodes: %v", err)
	}
	for v := 0; v < 30; v++ {
		if g.Degree(NodeID(v)) != pg.Degree(perm[v]) {
			t.Errorf("degree of %d changed under permutation", v)
		}
	}
}

func TestPermuteNodesLengthMismatch(t *testing.T) {
	g := Cycle(4)
	if _, err := PermuteNodes(g, []NodeID{0, 1}); err == nil {
		t.Error("want error on wrong permutation length")
	}
}

// Property: for any undirected graph, the sum of degrees equals twice the
// number of non-self-loop edges plus the self-loop contribution.
func TestDegreeSumProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%40) + 2
		m := int(mRaw) % (n * (n - 1) / 2)
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyiM(rng, n, m)
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: CSR round trip — every COO edge appears in both adjacency rows.
func TestCSRContainsAllEdgesProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(rng, n, 0.3)
		for _, e := range g.Edges() {
			if !g.HasEdge(e.Src, e.Dst) || !g.HasEdge(e.Dst, e.Src) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCSRBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := ErdosRenyiM(rng, 2000, 12000)
	edges := base.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := MustNew(2000, edges, false)
		g.buildCSR()
	}
}

func BenchmarkBatchMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	members := make([]*Graph, 64)
	for i := range members {
		members[i] = ErdosRenyiM(rng, 25, 50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewBatch(members); err != nil {
			b.Fatal(err)
		}
	}
}
