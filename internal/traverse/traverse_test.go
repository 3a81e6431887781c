package traverse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mega/internal/graph"
)

// figure3Graph is the paper's 7-node demonstration graph (Figure 3a shape).
func figure3Graph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.MustNew(7, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 5}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 3, Dst: 6}, {Src: 5, Dst: 6},
		{Src: 4, Dst: 6},
	}, false)
}

// checkInvariants validates the structural invariants every traversal must
// satisfy.
func checkInvariants(t *testing.T, g *graph.Graph, res *Result, wantFullNodes bool) {
	t.Helper()
	if len(res.Path) == 0 {
		t.Fatal("empty path")
	}
	if len(res.Virtual) != len(res.Path) {
		t.Fatalf("Virtual len %d != Path len %d", len(res.Virtual), len(res.Path))
	}
	if res.Virtual[0] {
		t.Error("Virtual[0] must be false")
	}
	// Non-virtual transitions must be real edges of the walked graph.
	for i := 1; i < len(res.Path); i++ {
		u, v := res.Path[i-1], res.Path[i]
		if !res.Virtual[i] && !res.Graph.HasEdge(u, v) {
			t.Errorf("step %d: (%d,%d) marked real but not an edge", i, u, v)
		}
		if res.Virtual[i] && res.Graph.HasEdge(u, v) {
			t.Errorf("step %d: (%d,%d) marked virtual but is an edge", i, u, v)
		}
	}
	if wantFullNodes {
		seen := make(map[graph.NodeID]bool)
		for _, v := range res.Path {
			seen[v] = true
		}
		if len(seen) != g.NumNodes() {
			t.Errorf("path visits %d of %d vertices", len(seen), g.NumNodes())
		}
	}
	if res.Revisits != len(res.Path)-countDistinct(res.Path) {
		t.Errorf("Revisits = %d, want %d", res.Revisits, len(res.Path)-countDistinct(res.Path))
	}
	nVirt := 0
	for _, v := range res.Virtual {
		if v {
			nVirt++
		}
	}
	if res.VirtualEdges != nVirt {
		t.Errorf("VirtualEdges = %d, want %d", res.VirtualEdges, nVirt)
	}
}

func countDistinct(path []graph.NodeID) int {
	seen := make(map[graph.NodeID]bool, len(path))
	for _, v := range path {
		seen[v] = true
	}
	return len(seen)
}

func TestRunEmptyGraph(t *testing.T) {
	g := graph.MustNew(0, nil, false)
	if _, err := Run(g, DefaultOptions()); err == nil {
		t.Error("empty graph should error")
	}
}

func TestRunSingleVertex(t *testing.T) {
	g := graph.MustNew(1, nil, false)
	res, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path) != 1 || res.Path[0] != 0 {
		t.Errorf("Path = %v", res.Path)
	}
	if res.EdgeCoverageRatio() != 1 {
		t.Errorf("coverage = %v, want 1 for edgeless graph", res.EdgeCoverageRatio())
	}
}

func TestRunPaperGraphFullCoverage(t *testing.T) {
	g := figure3Graph(t)
	res, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g, res, true)
	if res.EdgeCoverageRatio() != 1 {
		t.Errorf("edge coverage = %v, want 1 (θ=1)", res.EdgeCoverageRatio())
	}
	if res.CoveredEdges != g.NumEdges() {
		t.Errorf("covered %d of %d edges", res.CoveredEdges, g.NumEdges())
	}
}

func TestRunPathGraphNoRevisits(t *testing.T) {
	// A path graph has an Eulerian path: the traversal should walk it
	// with zero revisits and zero virtual edges.
	g := graph.Path(10)
	res, err := Run(g, Options{Window: 1, EdgeCoverage: 1, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g, res, true)
	if res.Revisits != 0 {
		t.Errorf("path graph revisits = %d, want 0", res.Revisits)
	}
	if res.VirtualEdges != 0 {
		t.Errorf("path graph virtual edges = %d, want 0", res.VirtualEdges)
	}
	if len(res.Path) != 10 {
		t.Errorf("path length = %d, want 10", len(res.Path))
	}
}

func TestRunCycleGraph(t *testing.T) {
	g := graph.Cycle(8)
	res, err := Run(g, Options{Window: 1, EdgeCoverage: 1, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g, res, true)
	// A cycle is Eulerian: 8 edges walkable with one revisit (returning
	// to the start) and no virtual edges.
	if res.EdgeCoverageRatio() != 1 {
		t.Errorf("coverage = %v", res.EdgeCoverageRatio())
	}
	if res.VirtualEdges != 0 {
		t.Errorf("cycle virtual edges = %d, want 0", res.VirtualEdges)
	}
}

func TestRunDisconnectedGraphUsesVirtualEdges(t *testing.T) {
	// Two disjoint triangles: a virtual jump is unavoidable.
	g := graph.MustNew(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
	}, false)
	res, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g, res, true)
	if res.VirtualEdges == 0 {
		t.Error("disconnected graph must use at least one virtual edge")
	}
	if res.EdgeCoverageRatio() != 1 {
		t.Errorf("coverage = %v, want 1", res.EdgeCoverageRatio())
	}
}

func TestRunStarGraphRevisitsHub(t *testing.T) {
	// Star K_{1,5}: the hub must be revisited to walk every spoke.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4}, {Src: 0, Dst: 5}}
	g := graph.MustNew(6, edges, false)
	res, err := Run(g, Options{Window: 1, EdgeCoverage: 1, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g, res, true)
	if res.EdgeCoverageRatio() != 1 {
		t.Errorf("coverage = %v, want 1", res.EdgeCoverageRatio())
	}
	hubAppearances := 0
	for _, v := range res.Path {
		if v == 0 {
			hubAppearances++
		}
	}
	if hubAppearances < 3 {
		t.Errorf("hub appears %d times; star needs >= 3 with ω=1", hubAppearances)
	}
	// The lower bound for the star with ω=1: ⌈5/1⌉ + 5·⌈1/1⌉ - 6 = 4.
	if lb := RevisitLowerBound(g.Degrees(), 1); lb != 4 {
		t.Errorf("RevisitLowerBound = %d, want 4", lb)
	}
}

func TestPartialEdgeCoverageStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.ErdosRenyiM(rng, 40, 200)
	full, err := Run(g, Options{Window: 2, EdgeCoverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	half, err := Run(g, Options{Window: 2, EdgeCoverage: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g, half, true)
	if half.EdgeCoverageRatio() < 0.5 {
		t.Errorf("coverage = %v, want >= 0.5", half.EdgeCoverageRatio())
	}
	if len(half.Path) >= len(full.Path) {
		t.Errorf("partial coverage path (%d) should be shorter than full (%d)", len(half.Path), len(full.Path))
	}
}

func TestEdgeDropping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.ErdosRenyiM(rng, 30, 120)
	res, err := Run(g, Options{Window: 2, EdgeCoverage: 1, DropEdges: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g, res, true)
	if res.DroppedEdges == 0 {
		t.Error("expected some dropped edges at 20%")
	}
	if res.TotalEdges != g.NumEdges()-res.DroppedEdges {
		t.Errorf("TotalEdges = %d, want %d", res.TotalEdges, g.NumEdges()-res.DroppedEdges)
	}
	if res.Graph.NumEdges() != res.TotalEdges {
		t.Errorf("result graph has %d edges, want %d", res.Graph.NumEdges(), res.TotalEdges)
	}
}

func TestEdgeDroppingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.ErdosRenyiM(rng, 20, 60)
	a, err := Run(g, Options{Window: 1, EdgeCoverage: 1, DropEdges: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Options{Window: 1, EdgeCoverage: 1, DropEdges: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.DroppedEdges != b.DroppedEdges || len(a.Path) != len(b.Path) {
		t.Error("same seed should give identical traversals")
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			t.Fatalf("paths diverge at %d", i)
		}
	}
}

func TestInvalidOptions(t *testing.T) {
	g := graph.Cycle(4)
	tests := []struct {
		name string
		opts Options
	}{
		{name: "negative coverage", opts: Options{EdgeCoverage: -0.1}},
		{name: "coverage > 1", opts: Options{EdgeCoverage: 1.5}},
		{name: "drop = 1", opts: Options{EdgeCoverage: 1, DropEdges: 1}},
		{name: "negative drop", opts: Options{EdgeCoverage: 1, DropEdges: -0.2}},
		{name: "start out of range", opts: Options{EdgeCoverage: 1, Start: 99}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(g, tt.opts); !errors.Is(err, ErrBadOptions) {
				t.Errorf("Run(%+v) = %v, want ErrBadOptions", tt.opts, err)
			}
		})
	}
}

// TestOptionsValidate pins each graph-independent bound Validate checks,
// at and just past its edge, and that Run on a valid graph answers the
// same: nil for options Validate accepts, ErrBadOptions for the rest.
func TestOptionsValidate(t *testing.T) {
	g := graph.ErdosRenyiM(rand.New(rand.NewSource(1)), 10, 20)
	nan := math.NaN()
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"defaults", DefaultOptions(), true},
		{"coverage 1", Options{EdgeCoverage: 1}, true},
		{"coverage half", Options{EdgeCoverage: 0.5}, true},
		{"coverage negative", Options{EdgeCoverage: -0.1}, false},
		{"coverage above 1", Options{EdgeCoverage: 1.5}, false},
		{"coverage NaN", Options{EdgeCoverage: nan}, false},
		{"drop 0.9", Options{DropEdges: 0.9}, true},
		{"drop negative", Options{DropEdges: -0.2}, false},
		{"drop 1", Options{DropEdges: 1}, false},
		{"drop NaN", Options{DropEdges: nan}, false},
		{"sparsify 1", Options{SparsifyFraction: 1}, true},
		{"sparsify negative", Options{SparsifyFraction: -0.1}, false},
		{"sparsify above 1", Options{SparsifyFraction: 1.5}, false},
		{"sparsify NaN", Options{SparsifyFraction: nan}, false},
		{"strategy redundant", Options{DropEdges: 0.2, DropStrategy: DropRedundant}, true},
		{"strategy unknown", Options{DropEdges: 0.2, DropStrategy: DropRedundant + 1}, false},
		{"strategy negative", Options{DropStrategy: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Start = -1
			verr := tc.opts.Validate()
			_, rerr := Run(g, tc.opts)
			if tc.ok {
				if verr != nil || rerr != nil {
					t.Fatalf("Validate() = %v, Run = %v, want nil", verr, rerr)
				}
				return
			}
			if !errors.Is(verr, ErrBadOptions) || !errors.Is(rerr, ErrBadOptions) {
				t.Fatalf("Validate() = %v, Run = %v, want ErrBadOptions from both", verr, rerr)
			}
		})
	}
}

func TestRunRejectsDirectedGraph(t *testing.T) {
	// On this input the walker used to chase arc 0->1 through pool 1b and
	// the stack forever: covering removed it from one row only.
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}, true)
	if _, err := Run(g, DefaultOptions()); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Run on a directed graph: %v, want ErrBadOptions", err)
	}
}

// A self loop is covered by revisiting its vertex while it is still in the
// window; the stack pops such a vertex twice in a row. The two inputs below,
// at ω = 1, are dense in self loops and parallel edges. The tests are named
// after the FIFO and most-correlated revisit orders, since removed, which
// alternated between two pending self-loop vertices forever on them; the
// one (LIFO) traversal must cover every distinct pair on both.
func TestSelfLoopsTerminateUnderMostCorrelated(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{{Src: 1, Dst: 1}, {Src: 0, Dst: 0}, {Src: 1, Dst: 0}, {Src: 1, Dst: 0}}, false)
	checkSelfLoopsCovered(t, g)
}

func TestSelfLoopsTerminateUnderFIFO(t *testing.T) {
	g := graph.MustNew(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 0}, {Src: 2, Dst: 4}, {Src: 3, Dst: 3},
		{Src: 0, Dst: 1}, {Src: 3, Dst: 3}, {Src: 0, Dst: 0}, {Src: 0, Dst: 3},
	}, false)
	checkSelfLoopsCovered(t, g)
}

func checkSelfLoopsCovered(t *testing.T, g *graph.Graph) {
	t.Helper()
	res := RunWithin(t, 5*time.Second, g, Options{Window: 1, EdgeCoverage: 1, Start: -1})
	if want := DistinctPairs(g); res.CoveredEdges != want {
		t.Errorf("covered %d of %d distinct pairs, path %v", res.CoveredEdges, want, res.Path)
	}
	checkInvariants(t, g, res, true)
}

func TestAdaptiveWindow(t *testing.T) {
	if w := AdaptiveWindow(graph.Cycle(10)); w != 2 {
		t.Errorf("cycle adaptive window = %d, want 2", w)
	}
	if w := AdaptiveWindow(graph.MustNew(3, nil, false)); w != 1 {
		t.Errorf("edgeless adaptive window = %d, want 1", w)
	}
	if w := AdaptiveWindow(graph.Complete(9)); w != 8 {
		t.Errorf("K9 adaptive window = %d, want 8", w)
	}
}

func TestAdaptiveWindowUsedWhenZero(t *testing.T) {
	g := graph.Complete(7)
	res, err := Run(g, Options{Window: 0, EdgeCoverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Window != 6 {
		t.Errorf("effective window = %d, want 6 (adaptive on K7)", res.Window)
	}
}

func TestRevisitLowerBound(t *testing.T) {
	tests := []struct {
		name    string
		degrees []int
		omega   int
		want    int
	}{
		{name: "path graph w1", degrees: []int{1, 2, 2, 1}, omega: 1, want: 2},
		{name: "path graph w2", degrees: []int{1, 2, 2, 1}, omega: 2, want: 0},
		{name: "isolated vertices", degrees: []int{0, 0}, omega: 1, want: 0},
		{name: "hub w1", degrees: []int{5, 1, 1, 1, 1, 1}, omega: 1, want: 4},
		{name: "hub w5", degrees: []int{5, 1, 1, 1, 1, 1}, omega: 5, want: 0},
		{name: "omega clamped", degrees: []int{3}, omega: 0, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := RevisitLowerBound(tt.degrees, tt.omega); got != tt.want {
				t.Errorf("RevisitLowerBound(%v, %d) = %d, want %d", tt.degrees, tt.omega, got, tt.want)
			}
		})
	}
}

func TestLargerWindowReducesRevisits(t *testing.T) {
	// The §III-B adaptivity claim: enlarging ω cuts revisits on graphs
	// with high-degree vertices.
	rng := rand.New(rand.NewSource(11))
	g := graph.BarabasiAlbert(rng, 60, 3)
	r1, err := Run(g, Options{Window: 1, EdgeCoverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(g, Options{Window: 4, EdgeCoverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Revisits > r1.Revisits {
		t.Errorf("ω=4 revisits (%d) should not exceed ω=1 revisits (%d)", r4.Revisits, r1.Revisits)
	}
}

func TestExpansionBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graph.ErdosRenyiM(rng, 50, 150)
	res, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Worst case appearance count is bounded by one per walked edge plus
	// jumps; in practice the adaptive window keeps expansion modest.
	if exp := res.Expansion(g.NumNodes()); exp > 3.5 {
		t.Errorf("expansion = %v, unexpectedly large", exp)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := figure3Graph(t)
	a, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Path) != len(b.Path) {
		t.Fatal("nondeterministic path length")
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			t.Fatalf("paths diverge at %d: %v vs %v", i, a.Path, b.Path)
		}
	}
}

// Property: every traversal visits all vertices, covers the requested edge
// fraction, and has consistent virtual-edge marking.
func TestTraversalInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8, wRaw uint8) bool {
		n := int(nRaw%30) + 2
		maxM := n * (n - 1) / 2
		m := int(mRaw) % (maxM + 1)
		w := int(wRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyiM(rng, n, m)
		res, err := Run(g, Options{Window: w, EdgeCoverage: 1})
		if err != nil {
			return false
		}
		if res.Graph == nil || res.EdgeCoverageRatio() < 1 {
			return false
		}
		seen := make(map[graph.NodeID]bool)
		for i, v := range res.Path {
			seen[v] = true
			if i > 0 {
				real := res.Graph.HasEdge(res.Path[i-1], v)
				if real == res.Virtual[i] {
					return false
				}
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: walked edges never exceed total edges, and revisits are
// non-negative and consistent.
func TestTraversalCountsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%25) + 2
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(rng, n, 0.25)
		res, err := Run(g, DefaultOptions())
		if err != nil {
			return false
		}
		return res.CoveredEdges <= res.TotalEdges && res.Revisits >= 0 &&
			len(res.Path) >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRunMolecular(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyiM(rng, 25, 28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.BarabasiAlbert(rng, 2000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDropRedundantTargetsHighDegreeEdges(t *testing.T) {
	// Hub-and-spoke plus a pendant chain: redundant dropping must prefer
	// edges between high-degree vertices over the pendant edges.
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 2},
		{Src: 1, Dst: 3}, {Src: 2, Dst: 3}, // K4 core
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, // pendant chain
	}
	g := graph.MustNew(6, edges, false)
	res, err := Run(g, Options{
		Window: 2, EdgeCoverage: 1,
		DropEdges: 0.25, DropStrategy: DropRedundant, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedEdges != 2 {
		t.Fatalf("dropped = %d, want 2 (25%% of 8)", res.DroppedEdges)
	}
	// The pendant edges (4,5) and (3,4) have the lowest degree products
	// and must survive.
	if !res.Graph.HasEdge(4, 5) || !res.Graph.HasEdge(3, 4) {
		t.Error("redundant dropping removed a pendant edge")
	}
	checkInvariants(t, g, res, true)
}

func TestDropStrategiesDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.BarabasiAlbert(rng, 60, 3)
	random, err := Run(g, Options{EdgeCoverage: 1, DropEdges: 0.3, DropStrategy: DropRandom, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	redundant, err := Run(g, Options{EdgeCoverage: 1, DropEdges: 0.3, DropStrategy: DropRedundant, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Redundant dropping trims hubs, so the surviving graph's max degree
	// must not exceed random dropping's.
	maxDeg := func(g *graph.Graph) int {
		m := 0
		for _, d := range g.Degrees() {
			if d > m {
				m = d
			}
		}
		return m
	}
	if maxDeg(redundant.Graph) > maxDeg(random.Graph) {
		t.Errorf("redundant max degree %d should be <= random %d",
			maxDeg(redundant.Graph), maxDeg(random.Graph))
	}
}

func TestDropStrategyString(t *testing.T) {
	if DropRandom.String() != "random" || DropRedundant.String() != "redundant" {
		t.Error("drop strategy strings wrong")
	}
}
