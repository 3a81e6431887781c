package traverse

import (
	"math/rand"
	"testing"

	"mega/internal/graph"
	"mega/internal/sparsify"
)

func sparsTestGraph(seed int64, n, m int) *graph.Graph {
	return graph.ErdosRenyiM(rand.New(rand.NewSource(seed)), n, m)
}

func pathsEqual(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func edgesEqual(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSparsifyFractionOneIsNoOp(t *testing.T) {
	g := sparsTestGraph(2, 25, 80)
	plain, err := Run(g, Options{EdgeCoverage: 1, Start: -1})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(g, Options{EdgeCoverage: 1, Start: -1, SparsifyFraction: 1, SparsifySeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !pathsEqual(plain.Path, one.Path) {
		t.Fatal("SparsifyFraction=1 changed the path")
	}
	if one.SparsifiedEdges != 0 || one.TotalEdges != g.NumEdges() {
		t.Fatalf("fraction 1 removed edges: sparsified=%d total=%d", one.SparsifiedEdges, one.TotalEdges)
	}
}

func TestSparsifyDeterministicAndSeedSensitive(t *testing.T) {
	g := sparsTestGraph(3, 40, 200)
	opts := Options{EdgeCoverage: 1, Start: -1, SparsifyFraction: 0.5, SparsifySeed: 11}
	a, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pathsEqual(a.Path, b.Path) || !edgesEqual(a.Graph.Edges(), b.Graph.Edges()) {
		t.Fatal("identical options produced different sparsified traversals")
	}
	opts.SparsifySeed = 12
	c, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if edgesEqual(a.Graph.Edges(), c.Graph.Edges()) {
		t.Fatal("different sparsify seeds kept identical edge sets")
	}
}

// TestSparsifyKeepsEdgeOrder checks that the walked graph holds exactly
// the sparsifier's kept edges, in their original relative order, and that
// the edge accounting adds up.
func TestSparsifyKeepsEdgeOrder(t *testing.T) {
	g := sparsTestGraph(4, 30, 120)
	res, err := Run(g, Options{EdgeCoverage: 1, Start: -1, SparsifyFraction: 0.6, SparsifySeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sparsify.New(g, sparsify.Options{Fraction: 0.6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var want []graph.Edge
	for i, e := range g.Edges() {
		if sk[i] {
			want = append(want, e)
		}
	}
	if !edgesEqual(res.Graph.Edges(), want) {
		t.Fatalf("walked graph has %d edges, not the %d kept edges in original order", res.Graph.NumEdges(), len(want))
	}
	if res.TotalEdges+res.DroppedEdges+res.SparsifiedEdges != g.NumEdges() {
		t.Fatalf("edge accounting: %d+%d+%d != %d",
			res.TotalEdges, res.DroppedEdges, res.SparsifiedEdges, g.NumEdges())
	}
}

// TestSparsifyDropIndependentStreams pins the satellite-3 contract: with
// Seed == SparsifySeed, the drop filter and the sparsifier must still
// decide independently — the combined run keeps exactly the intersection
// of what each filter keeps alone, and enabling the sparsifier must not
// shift a single drop decision.
func TestSparsifyDropIndependentStreams(t *testing.T) {
	g := sparsTestGraph(5, 40, 240)
	const seed = 77
	dropOnly, err := Run(g, Options{EdgeCoverage: 1, Start: -1, DropEdges: 0.3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sparsOnly, err := Run(g, Options{EdgeCoverage: 1, Start: -1, SparsifyFraction: 0.5, SparsifySeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Run(g, Options{EdgeCoverage: 1, Start: -1,
		DropEdges: 0.3, Seed: seed, SparsifyFraction: 0.5, SparsifySeed: seed})
	if err != nil {
		t.Fatal(err)
	}

	if both.DroppedEdges != dropOnly.DroppedEdges {
		t.Fatalf("enabling sparsify changed the drop count: %d vs %d",
			both.DroppedEdges, dropOnly.DroppedEdges)
	}

	inDrop := make(map[graph.Edge]bool, dropOnly.TotalEdges)
	for _, e := range dropOnly.Graph.Edges() {
		inDrop[e] = true
	}
	inSpars := make(map[graph.Edge]bool, sparsOnly.TotalEdges)
	for _, e := range sparsOnly.Graph.Edges() {
		inSpars[e] = true
	}
	var want []graph.Edge
	for _, e := range g.Edges() {
		if inDrop[e] && inSpars[e] {
			want = append(want, e)
		}
	}
	if !edgesEqual(both.Graph.Edges(), want) {
		t.Fatalf("combined run kept %d edges, intersection of solo runs has %d — streams coupled",
			both.TotalEdges, len(want))
	}
}

// TestSparsifyDropOrderBitIdentity applies the two keep-masks in both
// orders over the original edge list and asserts the surviving edge lists
// are bit-identical to each other and to what Run walks — the
// mask-intersection design makes application order structurally incapable
// of mattering.
func TestSparsifyDropOrderBitIdentity(t *testing.T) {
	g := sparsTestGraph(6, 35, 180)
	const seed = 13
	dk := dropKeepMask(g, 0.25, DropRandom, seed)
	sk, err := sparsify.New(g, sparsify.Options{Fraction: 0.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	var dropFirst, sparsFirst []graph.Edge
	for i, e := range edges {
		if dk[i] && sk[i] {
			dropFirst = append(dropFirst, e)
		}
		if sk[i] && dk[i] {
			sparsFirst = append(sparsFirst, e)
		}
	}
	if !edgesEqual(dropFirst, sparsFirst) {
		t.Fatal("mask application order changed the surviving edge list")
	}

	res, err := Run(g, Options{EdgeCoverage: 1, Start: -1,
		DropEdges: 0.25, Seed: seed, SparsifyFraction: 0.5, SparsifySeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !edgesEqual(res.Graph.Edges(), dropFirst) {
		t.Fatal("Run's composed filter disagrees with the hand-applied masks")
	}
	res2, err := Run(g, Options{EdgeCoverage: 1, Start: -1,
		DropEdges: 0.25, Seed: seed, SparsifyFraction: 0.5, SparsifySeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !pathsEqual(res.Path, res2.Path) {
		t.Fatal("composed traversal not bit-reproducible")
	}
}

// TestSparsifiedRevisitBound is the differential suite: traversal over
// sparsified topologies must satisfy every full-coverage invariant the
// fuzz corpus pins for plain graphs, including the two-sided revisit
// bound Σ⌈d/(2ω)⌉ − n evaluated on the walked (sparsified) graph.
func TestSparsifiedRevisitBound(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		frac float64
		seed int64
	}{
		{20, 60, 0.75, 1}, {30, 150, 0.5, 2}, {40, 300, 0.5, 3},
		{25, 100, 0.25, 4}, {50, 200, 0.5, 5}, {15, 40, 0.9, 6},
	} {
		g := sparsTestGraph(tc.seed, tc.n, tc.m)
		res, err := Run(g, Options{EdgeCoverage: 1, Start: -1,
			SparsifyFraction: tc.frac, SparsifySeed: tc.seed})
		if err != nil {
			t.Fatalf("n=%d m=%d frac=%v: %v", tc.n, tc.m, tc.frac, err)
		}
		if res.EdgeCoverageRatio() != 1 {
			t.Fatalf("n=%d m=%d frac=%v: coverage %v != 1", tc.n, tc.m, tc.frac, res.EdgeCoverageRatio())
		}
		if lb := RevisitLowerBound(res.Graph.Degrees(), 2*res.Window); res.Revisits < lb {
			t.Fatalf("n=%d m=%d frac=%v: revisits %d below two-sided bound %d (ω=%d)",
				tc.n, tc.m, tc.frac, res.Revisits, lb, res.Window)
		}
	}
}

// TestSparsifyShrinksBand pins the headline effect: at keep 0.5 on a dense
// graph the adaptive window (mean-degree driven) must not grow, and on
// this topology strictly shrinks.
func TestSparsifyShrinksBand(t *testing.T) {
	g := sparsTestGraph(7, 60, 600)
	plain, err := Run(g, Options{EdgeCoverage: 1, Start: -1})
	if err != nil {
		t.Fatal(err)
	}
	spars, err := Run(g, Options{EdgeCoverage: 1, Start: -1, SparsifyFraction: 0.5, SparsifySeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if spars.Window >= plain.Window {
		t.Fatalf("keep-0.5 window %d not below unsparsified %d", spars.Window, plain.Window)
	}
}

func TestOptionsDigest(t *testing.T) {
	base := Options{Window: 2, EdgeCoverage: 1, Start: -1, Seed: 5}
	if base.Digest() != base.Digest() {
		t.Fatal("digest not deterministic")
	}
	variants := []Options{
		{Window: 3, EdgeCoverage: 1, Start: -1, Seed: 5},
		{Window: 2, EdgeCoverage: 0.9, Start: -1, Seed: 5},
		{Window: 2, EdgeCoverage: 1, Start: -1, Seed: 5, DropEdges: 0.2},
		{Window: 2, EdgeCoverage: 1, Start: -1, Seed: 5, DropStrategy: DropRedundant},
		{Window: 2, EdgeCoverage: 1, Start: 0, Seed: 5},
		{Window: 2, EdgeCoverage: 1, Start: -1, Seed: 6},
		{Window: 2, EdgeCoverage: 1, Start: -1, Seed: 5, SparsifyFraction: 0.5},
		{Window: 2, EdgeCoverage: 1, Start: -1, Seed: 5, SparsifyFraction: 0.5, SparsifySeed: 1},
	}
	seen := map[OptionsDigest]int{base.Digest(): -1}
	for i, v := range variants {
		d := v.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("variant %d collides with variant %d", i, prev)
		}
		seen[d] = i
	}
}

// FuzzSparsifiedTraverse extends the FuzzTraverse invariants to
// sparsified topologies: fuzzer-chosen graphs, keep fractions, and seeds,
// with full coverage, edge accounting and the two-sided revisit bound all
// asserted on the walked graph.
func FuzzSparsifiedTraverse(f *testing.F) {
	f.Add(uint8(10), uint16(15), int64(1), uint8(128), uint8(0))
	f.Add(uint8(30), uint16(200), int64(3), uint8(64), uint8(2))
	f.Add(uint8(17), uint16(40), int64(-5), uint8(255), uint8(4))
	f.Add(uint8(25), uint16(90), int64(8), uint8(32), uint8(1))

	f.Fuzz(func(t *testing.T, nRaw uint8, mRaw uint16, seed int64, fracRaw, wRaw uint8) {
		n := int(nRaw)%40 + 1
		maxM := n * (n - 1) / 2
		m := 0
		if maxM > 0 {
			m = int(mRaw) % (maxM + 1)
		}
		g := graph.ErdosRenyiM(rand.New(rand.NewSource(seed)), n, m)
		frac := (float64(fracRaw) + 1) / 256 // (0, 1]
		opts := Options{
			Window:           int(wRaw) % 6,
			EdgeCoverage:     1,
			Start:            -1,
			SparsifyFraction: frac,
			SparsifySeed:     seed,
		}
		res, err := Run(g, opts)
		if err != nil {
			t.Fatalf("n=%d m=%d frac=%v: %v", n, m, frac, err)
		}
		if res.EdgeCoverageRatio() != 1 {
			t.Fatalf("coverage %v != 1", res.EdgeCoverageRatio())
		}
		seen := make(map[graph.NodeID]bool, n)
		for i, v := range res.Path {
			if int(v) < 0 || int(v) >= n {
				t.Fatalf("path[%d] = %d out of range", i, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("path covers %d of %d vertices", len(seen), n)
		}
		if res.TotalEdges+res.DroppedEdges+res.SparsifiedEdges != g.NumEdges() {
			t.Fatalf("edge accounting: %d+%d+%d != %d",
				res.TotalEdges, res.DroppedEdges, res.SparsifiedEdges, g.NumEdges())
		}
		if lb := RevisitLowerBound(res.Graph.Degrees(), 2*res.Window); res.Revisits < lb {
			t.Fatalf("revisits %d below two-sided bound %d (ω=%d)", res.Revisits, lb, res.Window)
		}
	})
}
