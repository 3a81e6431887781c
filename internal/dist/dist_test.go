package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mega/internal/band"
	"mega/internal/graph"
	"mega/internal/traverse"
)

func buildFor(t testing.TB, g *graph.Graph, window int) (*band.Rep, *traverse.Result) {
	t.Helper()
	rep, res, err := band.FromGraph(g, traverse.Options{Window: window, EdgeCoverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rep, res
}

func buildRep(t testing.TB, g *graph.Graph, window int) *band.Rep {
	rep, _ := buildFor(t, g, window)
	return rep
}

func TestAnalyzeEdgePartitionValidation(t *testing.T) {
	g := graph.Cycle(8)
	if _, err := AnalyzeEdgePartition(g, 0, 16); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := AnalyzeEdgePartition(g, 9, 16); err == nil {
		t.Error("k > n should error")
	}
}

func TestAnalyzeEdgePartitionSingleWorker(t *testing.T) {
	g := graph.Cycle(8)
	s, err := AnalyzeEdgePartition(g, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.Messages != 0 || s.Bytes != 0 {
		t.Errorf("single worker should not communicate: %+v", s)
	}
}

func TestAnalyzeEdgePartitionCycleCut(t *testing.T) {
	// Range partition of a cycle into k=2: exactly two cut edges, both
	// parts exchange both directions: 2 messages, 2 rows each way.
	g := graph.Cycle(8)
	s, err := AnalyzeEdgePartition(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Messages != 2 {
		t.Errorf("messages = %d, want 2", s.Messages)
	}
	// Rows moved: each direction carries the 2 boundary vertices of one
	// side (vertices 0,7 to part 1's side is... both cut edges (3,4) and
	// (7,0): part0 sends {3, 0}... i.e. 2 rows per direction.
	if s.Bytes != int64(2*2*4*8) {
		t.Errorf("bytes = %d, want %d", s.Bytes, 2*2*4*8)
	}
	if s.MaxFanout != 1 {
		t.Errorf("fanout = %d, want 1", s.MaxFanout)
	}
}

func TestEdgePartitionDenseGraphAllToAll(t *testing.T) {
	g := graph.Complete(16)
	s, err := AnalyzeEdgePartition(g, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxFanout != 3 {
		t.Errorf("complete graph fanout = %d, want k-1 = 3", s.MaxFanout)
	}
	if s.Messages != 4*3 {
		t.Errorf("messages = %d, want 12 (all ordered pairs)", s.Messages)
	}
}

// TestAnalyzePathPartitionExact pins every analyzer term on a hand-built
// representation: L=16, ω=1, k=4 (chunks of 4 rows), one duplicate group
// spanning chunks 0 and 2, one cross-chunk edge, one intra-chunk edge.
func TestAnalyzePathPartitionExact(t *testing.T) {
	const L, dim, k = 16, 8, 4
	rep := &band.Rep{
		Path:       make([]graph.NodeID, L),
		Window:     1,
		NumNodes:   15,
		Mask:       [][]bool{make([]bool, L-1)},
		EdgeID:     [][]int32{make([]int32, L-1)},
		Positions:  make([][]int32, 15),
		TotalEdges: 2,
	}
	for i := range rep.EdgeID[0] {
		rep.EdgeID[0][i] = -1
	}
	// Vertex 2 appears at positions 2 and 9: the group is owned by chunk
	// 0, chunk 2 holds one member -> 2 messages, (1+1)·dim·8 bytes.
	rep.Positions[2] = []int32{2, 9}
	// Edge 0 pairs positions 3 and 4: owner is chunk 0 (first receiver,
	// position 3); chunk 1 references it once (receiver position 4) ->
	// 2 messages, (1+1)·dim·8 bytes.
	rep.Mask[0][3] = true
	rep.EdgeID[0][3] = 0
	// Edge 1 pairs positions 5 and 6, both in chunk 1: no traffic.
	rep.Mask[0][5] = true
	rep.EdgeID[0][5] = 1

	s, err := AnalyzePathPartition(rep, k, dim)
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := 2*(k-1) + 2 + 2
	if s.Messages != wantMsgs {
		t.Errorf("messages = %d, want %d", s.Messages, wantMsgs)
	}
	wantBytes := int64(2*(k-1)*1*dim*8) + 2*int64(2*dim*8)
	if s.Bytes != wantBytes {
		t.Errorf("bytes = %d, want %d", s.Bytes, wantBytes)
	}
	if s.MaxFanout != 2 {
		t.Errorf("fanout = %d, want 2", s.MaxFanout)
	}
	if s.ReplicatedRows != 2*(k-1)*1 {
		t.Errorf("replicated rows = %d, want %d", s.ReplicatedRows, 2*(k-1))
	}
	if _, err := AnalyzePathPartition(rep, 0, dim); err == nil {
		t.Error("k=0 should error")
	}
}

func TestPathPartitionBeatsEdgePartitionOnDenseGraphs(t *testing.T) {
	// The §IV-B6 claim: O(k) messages for paths vs up to O(k²) for cuts,
	// with bounded fanout. The workload shape is the paper's: a batch of
	// small sparse graphs whose node IDs carry no locality (scrambled),
	// so a range partition cuts heavily while the traversal lays each
	// member graph out contiguously.
	rng := rand.New(rand.NewSource(1))
	members := make([]*graph.Graph, 24)
	for i := range members {
		members[i] = graph.RandomTree(rng, 16)
	}
	b, err := graph.NewBatch(members)
	if err != nil {
		t.Fatal(err)
	}
	perm := graph.RandomPermutation(rng, b.Merged.NumNodes())
	g, err := graph.PermuteNodes(b.Merged, perm)
	if err != nil {
		t.Fatal(err)
	}
	rep := buildRep(t, g, 0)
	for _, k := range []int{4, 8, 16} {
		edge, err := AnalyzeEdgePartition(g, k, 64)
		if err != nil {
			t.Fatal(err)
		}
		path, err := AnalyzePathPartition(rep, k, 64)
		if err != nil {
			t.Fatal(err)
		}
		if path.MaxFanout > 2 {
			t.Errorf("k=%d: path fanout = %d, want <= 2", k, path.MaxFanout)
		}
		if edge.MaxFanout <= path.MaxFanout && k > 4 {
			t.Errorf("k=%d: edge fanout %d should exceed path fanout %d", k, edge.MaxFanout, path.MaxFanout)
		}
		if path.Messages >= edge.Messages && k > 4 {
			t.Errorf("k=%d: path messages %d should be below edge messages %d", k, path.Messages, edge.Messages)
		}
		// Byte advantage grows with k: edge-cut traffic scales with the
		// boundary (≈ all-to-all), halo traffic scales O(k).
		if k >= 8 && path.Bytes >= edge.Bytes {
			t.Errorf("k=%d: path bytes %d should be below edge bytes %d", k, path.Bytes, edge.Bytes)
		}
	}
}

// revisitHeavyGraph builds a random tree: its traversal must backtrack at
// every leaf, so the path is full of revisits (duplicate groups).
func revisitHeavyGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.RandomTree(rng, n)
}

// spanningChunks returns the number of distinct k-chunks the widest
// duplicate group of rep touches.
func spanningChunks(rep *band.Rep, k int) int {
	L := rep.Len()
	max := 0
	for _, g := range rep.SyncGroups() {
		chunks := make(map[int]bool)
		for _, p := range g {
			chunks[int(p)*k/L] = true
		}
		if len(chunks) > max {
			max = len(chunks)
		}
	}
	return max
}

// TestRunHaloExchangeMatchesAnalysis is the end-to-end traffic property:
// the observed message and byte counts of the real sharded GNN equal the
// closed-form analysis times the layer count, on revisit-heavy graphs
// whose duplicate groups span more than two chunks.
func TestRunHaloExchangeMatchesAnalysis(t *testing.T) {
	const dim, layers = 4, 2
	spanned := false
	for seed := int64(0); seed < 6; seed++ {
		g := revisitHeavyGraph(seed, 40)
		rep, res := buildFor(t, g, 2)
		for _, k := range []int{2, 3, 4, 5, 6, 8} {
			if spanningChunks(rep, k) > 2 {
				spanned = true
			}
			obs, err := RunHaloExchange(g, rep, res, k, dim, layers)
			if err != nil {
				t.Fatalf("seed %d k=%d: %v", seed, k, err)
			}
			ana, err := AnalyzePathPartition(rep, k, dim)
			if err != nil {
				t.Fatal(err)
			}
			if obs.Messages != ana.Messages*layers {
				t.Errorf("seed %d k=%d: observed %d messages, analysis predicts %d x %d",
					seed, k, obs.Messages, ana.Messages, layers)
			}
			if obs.Bytes != ana.Bytes*int64(layers) {
				t.Errorf("seed %d k=%d: observed %d bytes, analysis predicts %d x %d",
					seed, k, obs.Bytes, ana.Bytes, layers)
			}
		}
	}
	if !spanned {
		t.Fatal("workload never produced a duplicate group spanning > 2 chunks; property under-tested")
	}
}

// TestRunHaloExchangeTrafficProperty drives the same observed-vs-analysis
// equality through randomized shapes.
func TestRunHaloExchangeTrafficProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%24) + 16
		g := revisitHeavyGraph(seed, n)
		rep, res, err := band.FromGraph(g, traverse.Options{Window: 2, EdgeCoverage: 1})
		if err != nil || rep.Len() < 16 {
			return true // skip degenerate shapes
		}
		ks := []int{2, 3, 4, 5, 6, 8}
		k := ks[int(kRaw)%len(ks)]
		obs, err := RunHaloExchange(g, rep, res, k, 4, 2)
		if err != nil {
			return false
		}
		ana, err := AnalyzePathPartition(rep, k, 4)
		if err != nil {
			return false
		}
		return obs.Messages == ana.Messages*2 && obs.Bytes == ana.Bytes*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRunHaloExchangeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.ErdosRenyiM(rng, 60, 150)
	rep, res := buildFor(t, g, 2)
	a, err := RunHaloExchange(g, rep, res, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHaloExchange(g, rep, res, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.RowSums {
		if math.Float64bits(a.RowSums[i]) != math.Float64bits(b.RowSums[i]) {
			t.Fatalf("row %d differs across identical runs", i)
		}
	}
}

// TestRunHaloExchangeMatchesSingleWorker pins the engine's bit-determinism
// across worker counts: the distributed forward is exactly the k=1 result.
func TestRunHaloExchangeMatchesSingleWorker(t *testing.T) {
	g := graph.Path(48)
	rep, res := buildFor(t, g, 2)
	single, err := RunHaloExchange(g, rep, res, 1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if single.Messages != 0 {
		t.Errorf("single worker sent %d messages", single.Messages)
	}
	for _, k := range []int{2, 3, 4, 5, 6, 8} {
		multi, err := RunHaloExchange(g, rep, res, k, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range single.RowSums {
			if math.Float64bits(single.RowSums[i]) != math.Float64bits(multi.RowSums[i]) {
				t.Fatalf("k=%d: row %d diverges from single-worker result", k, i)
			}
		}
	}
}

// Property: path partition messages are exactly 2(k-1) plus sync traffic,
// independent of graph density.
func TestPathPartitionMessageProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 8
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyiM(rng, n, n*2)
		rep, _, err := band.FromGraph(g, traverse.DefaultOptions())
		if err != nil {
			return false
		}
		k := int(kRaw%4) + 2
		if k > rep.Len() {
			k = rep.Len()
		}
		s, err := AnalyzePathPartition(rep, k, 16)
		if err != nil {
			return false
		}
		return s.Messages >= 2*(k-1) && s.MaxFanout <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHaloExchange(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyiM(rng, 512, 1500)
	rep, res := buildFor(b, g, 2)
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunHaloExchange(g, rep, res, k, 32, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
