package band

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mega/internal/graph"
	"mega/internal/traverse"
	"mega/internal/wl"
)

func buildFor(t *testing.T, g *graph.Graph, opts traverse.Options) (*Rep, *traverse.Result) {
	t.Helper()
	rep, res, err := FromGraph(g, opts)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	return rep, res
}

func TestBuildWindowValidation(t *testing.T) {
	g := graph.Cycle(5)
	res, err := traverse.Run(g, traverse.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, res, -1); err == nil {
		t.Error("negative window should error")
	}
	rep, err := Build(g, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Window != res.Window {
		t.Errorf("window 0 should default to traversal window %d, got %d", res.Window, rep.Window)
	}
}

func TestMaskMatchesGraphEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyiM(rng, 20, 50)
	rep, _ := buildFor(t, g, traverse.DefaultOptions())
	for o := 1; o <= rep.Window; o++ {
		mask := rep.Mask[o-1]
		eids := rep.EdgeID[o-1]
		if len(mask) != rep.Len()-o {
			t.Fatalf("offset %d: mask len %d, want %d", o, len(mask), rep.Len()-o)
		}
		for i := range mask {
			u, v := rep.Path[i], rep.Path[i+o]
			if mask[i] != (u != v && g.HasEdge(u, v)) {
				t.Errorf("offset %d pos %d: mask %v for pair (%d,%d)", o, i, mask[i], u, v)
			}
			if mask[i] {
				e := g.EdgeAt(int(eids[i]))
				if !((e.Src == u && e.Dst == v) || (e.Src == v && e.Dst == u)) {
					t.Errorf("offset %d pos %d: edge id %d = %v does not connect (%d,%d)", o, i, eids[i], e, u, v)
				}
			} else if eids[i] != -1 {
				t.Errorf("offset %d pos %d: unmasked entry has edge id %d", o, i, eids[i])
			}
		}
	}
}

func TestFullCoverageBandCoversAllEdges(t *testing.T) {
	// With θ=1, every edge must land inside the band.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := graph.ErdosRenyiM(rng, 15+trial, 30+2*trial)
		rep, _ := buildFor(t, g, traverse.DefaultOptions())
		if rep.BandCoverage() != 1 {
			t.Errorf("trial %d: band coverage = %v, want 1 (missing %v)", trial, rep.BandCoverage(), rep.MissingEdges())
		}
		if len(rep.MissingEdges()) != 0 {
			t.Errorf("trial %d: missing edges %v", trial, rep.MissingEdges())
		}
	}
}

func TestPositionsInverse(t *testing.T) {
	g := graph.Complete(8)
	rep, _ := buildFor(t, g, traverse.DefaultOptions())
	total := 0
	for v, positions := range rep.Positions {
		total += len(positions)
		for _, p := range positions {
			if rep.Path[p] != graph.NodeID(v) {
				t.Errorf("Positions[%d] includes %d but Path[%d] = %d", v, p, p, rep.Path[p])
			}
		}
	}
	if total != rep.Len() {
		t.Errorf("positions cover %d entries, path has %d", total, rep.Len())
	}
}

func TestSyncGroupsOnlyDuplicates(t *testing.T) {
	// Star graph with ω=1 forces hub revisits -> at least one sync group.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4}}
	g := graph.MustNew(5, edges, false)
	rep, _ := buildFor(t, g, traverse.Options{Window: 1, EdgeCoverage: 1, Start: 0})
	groups := rep.SyncGroups()
	if len(groups) == 0 {
		t.Fatal("star with ω=1 must produce duplicates")
	}
	for _, grp := range groups {
		if len(grp) < 2 {
			t.Errorf("sync group %v has fewer than 2 positions", grp)
		}
		v := rep.Path[grp[0]]
		for _, p := range grp[1:] {
			if rep.Path[p] != v {
				t.Errorf("sync group %v mixes vertices", grp)
			}
		}
	}
}

func TestNoSyncGroupsWithoutRevisits(t *testing.T) {
	g := graph.Path(10)
	rep, res := buildFor(t, g, traverse.Options{Window: 1, EdgeCoverage: 1, Start: 0})
	if res.Revisits != 0 {
		t.Fatalf("path graph should have no revisits, got %d", res.Revisits)
	}
	if groups := rep.SyncGroups(); len(groups) != 0 {
		t.Errorf("unexpected sync groups %v", groups)
	}
}

func TestExpansion(t *testing.T) {
	g := graph.Path(10)
	rep, _ := buildFor(t, g, traverse.Options{Window: 1, EdgeCoverage: 1, Start: 0})
	if rep.Expansion() != 1 {
		t.Errorf("path graph expansion = %v, want 1", rep.Expansion())
	}
}

func TestInducedGraphWLSimilarity(t *testing.T) {
	// Full-coverage band: the induced graph contains every original edge,
	// so 1-hop WL similarity must be >= the original's (virtual edges may
	// add structure but nothing is lost). This is the Figure 8 "path
	// representation consistently ensures identity in 1-hop" claim when
	// no virtual edges are needed.
	g := graph.Path(12)
	rep, res := buildFor(t, g, traverse.Options{Window: 1, EdgeCoverage: 1, Start: 0})
	ind, err := rep.InducedGraph(res, false)
	if err != nil {
		t.Fatal(err)
	}
	if s := wl.GraphSimilarity(g, ind, nil, nil, 1); s != 1 {
		t.Errorf("1-hop WL similarity = %v, want 1 (no virtual edges needed)", s)
	}
	if s := wl.GraphSimilarity(g, ind, nil, nil, 3); s != 1 {
		t.Errorf("3-hop WL similarity = %v, want 1", s)
	}
}

func TestInducedGraphContainsAllCoveredEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.ErdosRenyiM(rng, 18, 40)
	rep, res := buildFor(t, g, traverse.DefaultOptions())
	ind, err := rep.InducedGraph(res, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if !ind.HasEdge(e.Src, e.Dst) {
			t.Errorf("covered edge (%d,%d) missing from induced graph", e.Src, e.Dst)
		}
	}
}

func TestEdgeDroppedBandExcludesDroppedEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ErdosRenyiM(rng, 25, 80)
	rep, res, err := FromGraph(g, traverse.Options{EdgeCoverage: 1, DropEdges: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedEdges == 0 {
		t.Skip("no edges dropped at this seed")
	}
	if rep.TotalEdges != res.TotalEdges {
		t.Errorf("band total edges %d, traversal %d", rep.TotalEdges, res.TotalEdges)
	}
	// The band is built against the dropped graph, so full coverage of
	// the REMAINING edges is still expected.
	if rep.BandCoverage() != 1 {
		t.Errorf("band coverage of kept edges = %v, want 1", rep.BandCoverage())
	}
}

// Property: band coverage is always >= the traversal's reported coverage
// (same window), and equals 1 under θ=1 on connected simple graphs.
func TestBandCoverageProperty(t *testing.T) {
	f := func(seed int64, nRaw, wRaw uint8) bool {
		n := int(nRaw%20) + 3
		w := int(wRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyiM(rng, n, n*2)
		res, err := traverse.Run(g, traverse.Options{Window: w, EdgeCoverage: 1})
		if err != nil {
			return false
		}
		rep, err := Build(res.Graph, res, 0)
		if err != nil {
			return false
		}
		return rep.BandCoverage() >= res.EdgeCoverageRatio()-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: every masked band entry corresponds to a real edge, and every
// real edge is masked somewhere when coverage is full.
func TestMaskSoundnessProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%15) + 3
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(rng, n, 0.3)
		rep, res, err := FromGraph(g, traverse.DefaultOptions())
		if err != nil {
			return false
		}
		_ = res
		for o := 1; o <= rep.Window; o++ {
			for i, m := range rep.Mask[o-1] {
				if m != (rep.Path[i] != rep.Path[i+o] && g.HasEdge(rep.Path[i], rep.Path[i+o])) {
					return false
				}
			}
		}
		return rep.BandCoverage() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.BarabasiAlbert(rng, 500, 3)
	res, err := traverse.Run(g, traverse.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, res, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepare times FromGraph, traversal plus band on a fresh graph
// value (so its CSR build is inside, as on a cold /predict or an /update
// rebuild), at the serving benchmark's three tree-plus-chords size classes
// and at the update benchmark's Barabási–Albert lineage size.
func BenchmarkPrepare(b *testing.B) {
	treeChords := func(n, chords int) *graph.Graph {
		rng := rand.New(rand.NewSource(1))
		edges := graph.RandomTree(rng, n).Edges()
		seen := make(map[graph.Edge]bool, len(edges)+chords)
		for _, e := range edges {
			seen[e] = true
		}
		for added := 0; added < chords; {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u > v {
				u, v = v, u
			}
			if e := (graph.Edge{Src: u, Dst: v}); u != v && !seen[e] {
				seen[e] = true
				edges = append(edges, e)
				added++
			}
		}
		return graph.MustNew(n, edges, false)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"tree32+6", treeChords(32, 6)},
		{"tree96+18", treeChords(96, 18)},
		{"tree224+40", treeChords(224, 40)},
		{"ba2000m3", graph.BarabasiAlbert(rand.New(rand.NewSource(1)), 2000, 3)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := FromGraph(c.g.Clone(), traverse.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPositionGraph(t *testing.T) {
	g := graph.Path(6)
	rep, _ := buildFor(t, g, traverse.Options{Window: 1, EdgeCoverage: 1, Start: 0})
	pg, err := rep.PositionGraph()
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumNodes() != rep.Len() {
		t.Fatalf("position graph nodes = %d, want %d", pg.NumNodes(), rep.Len())
	}
	// Path graph, no revisits: position graph is isomorphic to the input.
	if pg.NumEdges() != g.NumEdges() {
		t.Errorf("position graph edges = %d, want %d", pg.NumEdges(), g.NumEdges())
	}
	if s := wl.GraphSimilarity(g, pg, nil, nil, 3); s != 1 {
		t.Errorf("position graph WL similarity = %v, want 1 on a revisit-free path", s)
	}
}

func TestPositionGraphWithRevisits(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}}
	g := graph.MustNew(4, edges, false)
	rep, _ := buildFor(t, g, traverse.Options{Window: 1, EdgeCoverage: 1, Start: 0})
	pg, err := rep.PositionGraph()
	if err != nil {
		t.Fatal(err)
	}
	// Every masked band entry maps to exactly one position edge.
	want := 0
	for o := 1; o <= rep.Window; o++ {
		for _, on := range rep.Mask[o-1] {
			if on {
				want++
			}
		}
	}
	if pg.NumEdges() != want {
		t.Errorf("position graph edges = %d, want %d", pg.NumEdges(), want)
	}
}

func TestFirstAppearance(t *testing.T) {
	g := graph.Cycle(5)
	rep, _ := buildFor(t, g, traverse.Options{Window: 1, EdgeCoverage: 1, Start: 0})
	first := rep.FirstAppearance()
	if len(first) != 5 {
		t.Fatalf("first appearance length = %d", len(first))
	}
	for v, p := range first {
		if p < 0 {
			t.Fatalf("vertex %d missing from full-coverage path", v)
		}
		if rep.Path[p] != graph.NodeID(v) {
			t.Errorf("FirstAppearance[%d] = %d but Path[%d] = %d", v, p, p, rep.Path[p])
		}
		for _, q := range rep.Positions[v] {
			if q < p {
				t.Errorf("position %d of vertex %d precedes reported first %d", q, v, p)
			}
		}
	}
}

func TestEdgeRefsCanonicalOrder(t *testing.T) {
	g := graph.Cycle(6)
	rep, _ := buildFor(t, g, traverse.Options{Window: 2, EdgeCoverage: 1, Start: 0})
	refs := rep.EdgeRefs()
	if len(refs) != rep.TotalEdges {
		t.Fatalf("refs length = %d, want %d", len(refs), rep.TotalEdges)
	}
	// Rebuild the expected per-edge receiver lists by walking the mask in
	// the canonical order and check exact equality.
	want := make([][]int32, rep.TotalEdges)
	for o := 1; o <= rep.Window; o++ {
		for i, m := range rep.Mask[o-1] {
			if m {
				e := rep.EdgeID[o-1][i]
				want[e] = append(want[e], int32(i), int32(i+o))
			}
		}
	}
	covered := 0
	for e := range refs {
		if len(refs[e]) != len(want[e]) {
			t.Fatalf("edge %d: %d refs, want %d", e, len(refs[e]), len(want[e]))
		}
		for j := range refs[e] {
			if refs[e][j] != want[e][j] {
				t.Fatalf("edge %d ref %d = %d, want %d", e, j, refs[e][j], want[e][j])
			}
		}
		if len(refs[e]) > 0 {
			covered++
			// Receiver positions must carry the edge within the band window.
			for j := 0; j+1 < len(refs[e]); j += 2 {
				lo, hi := refs[e][j], refs[e][j+1]
				if hi <= lo || int(hi-lo) > rep.Window {
					t.Fatalf("edge %d pair (%d,%d) outside band", e, lo, hi)
				}
			}
		}
	}
	if covered != rep.CoveredEdges {
		t.Errorf("edges with refs = %d, want CoveredEdges = %d", covered, rep.CoveredEdges)
	}
}
