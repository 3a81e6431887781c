package models

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"mega/internal/compute"
	"mega/internal/datasets"
	"mega/internal/graph"
	"mega/internal/tensor"
)

// pinnedF32File holds one line per case: model/case name, then the
// Float32bits (hex) of every element of the frozen f32 forward's output.
// It was generated at commit cefc949, whose f32 forward ran bias, ReLU,
// residual add and LayerNorm as separate row passes behind an SSE
// matmul tile, so it pins any fusion or re-tiling of that forward to the
// arithmetic it replaced rather than to itself. There is no in-tree
// writer, as for internal/train/testdata/pinned_losses.txt: to extend it,
// check a trusted parent out of tree, run pinnedF32Cases through
// pinnedF32Bits there and append the lines.
const pinnedF32File = "testdata/pinned_f32.txt"

type pinnedF32Case struct {
	name  string
	seed  int64 // model initialisation
	insts []datasets.Instance
}

// pinnedF32Cases are the served configuration's shapes: synthetic ZINC
// batches of 1, 5 and 16 graphs for dataset and model seeds 1–3, and one
// random tree plus chords of each of the benchmark's three size classes.
func pinnedF32Cases() []pinnedF32Case {
	var cases []pinnedF32Case
	for seed := int64(1); seed <= 3; seed++ {
		zinc := datasets.ZINC(datasets.Config{TrainSize: 16, Seed: seed})
		for _, n := range []int{1, 5, 16} {
			cases = append(cases, pinnedF32Case{fmt.Sprintf("zinc%d/seed%d", n, seed), seed, zinc.Train[:n]})
		}
	}
	rng := rand.New(rand.NewSource(29))
	for _, sc := range []struct{ nodes, chords int }{{32, 6}, {96, 18}, {224, 40}} {
		inst := treeChordsInstance(rng, sc.nodes, sc.chords)
		cases = append(cases, pinnedF32Case{fmt.Sprintf("tree%d", sc.nodes), 1, []datasets.Instance{inst}})
	}
	return cases
}

// treeChordsInstance is a random tree on n vertices plus chords distinct
// extra edges, with random node and edge types.
func treeChordsInstance(rng *rand.Rand, n, chords int) datasets.Instance {
	edges := graph.RandomTree(rng, n).Edges()
	for want := len(edges) + chords; len(edges) < want; {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		dup := u == v
		for _, e := range edges {
			dup = dup || (e.Src == u && e.Dst == v) || (e.Src == v && e.Dst == u)
		}
		if !dup {
			edges = append(edges, graph.Edge{Src: u, Dst: v})
		}
	}
	inst := datasets.Instance{G: graph.MustNew(n, edges, false)}
	inst.NodeFeat = make([]int32, n)
	for i := range inst.NodeFeat {
		inst.NodeFeat[i] = int32(rng.Intn(8))
	}
	inst.EdgeFeat = make([]int32, len(edges))
	for i := range inst.EdgeFeat {
		inst.EdgeFeat[i] = int32(rng.Intn(4))
	}
	return inst
}

// pinnedF32Bits runs case c through the served configuration of model
// kind ("GT" or "GAT") at the given thread count.
func pinnedF32Bits(t *testing.T, kind string, c pinnedF32Case, threads int) []string {
	t.Helper()
	prev := compute.SetMaxThreads(threads)
	defer compute.SetMaxThreads(prev)
	cfg := Config{Dim: 64, Layers: 4, Heads: 4, NodeTypes: 28, EdgeTypes: 4, OutDim: 1, Seed: c.seed}
	var m Model = NewGT(cfg)
	if kind == "GAT" {
		m = NewGAT(cfg)
	}
	m32, err := PrepareF32(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewMegaContext(c.insts, MegaOptions{}, nil, cfg.Dim)
	if err != nil {
		t.Fatalf("%s/%s: %v", kind, c.name, err)
	}
	out := m32.Forward(ctx, tensor.NewArena())
	bits := make([]string, len(out.Data))
	for i, v := range out.Data {
		bits[i] = strconv.FormatUint(uint64(math.Float32bits(v)), 16)
	}
	return bits
}

// TestF32ForwardMatchesPinned asserts that the f32 forward reproduces the
// recorded parent's output bits, at one thread and at two.
func TestF32ForwardMatchesPinned(t *testing.T) {
	f, err := os.Open(pinnedF32File)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string][]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			want[fields[0]] = fields[1:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := pinnedF32Cases()
	kinds := []string{"GT", "GAT"}
	if len(want) != len(kinds)*len(cases) {
		t.Fatalf("%s has %d cases, the corpus %d", pinnedF32File, len(want), len(kinds)*len(cases))
	}
	for _, kind := range kinds {
		for _, c := range cases {
			name := kind + "/" + c.name
			for _, threads := range []int{1, 2} {
				if got := pinnedF32Bits(t, kind, c, threads); fmt.Sprint(got) != fmt.Sprint(want[name]) {
					t.Errorf("%s threads=%d:\n got  %v\n want %v", name, threads, got, want[name])
				}
			}
		}
	}
}
