package datasets

import (
	"math"
	"testing"

	"mega/internal/graph"
)

// smallCfg keeps generation fast in tests.
func smallCfg(seed int64) Config {
	return Config{TrainSize: 40, ValSize: 10, TestSize: 10, Seed: seed}
}

func TestGenerateKnownNames(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d, err := Generate(name, smallCfg(1))
			if err != nil {
				t.Fatalf("Generate(%q): %v", name, err)
			}
			if d.Name != name {
				t.Errorf("Name = %q", d.Name)
			}
			if len(d.Train) != 40 || len(d.Val) != 10 || len(d.Test) != 10 {
				t.Errorf("split sizes = %d/%d/%d", len(d.Train), len(d.Val), len(d.Test))
			}
			for i, inst := range d.All() {
				if inst.G == nil {
					t.Fatalf("instance %d has nil graph", i)
				}
				if len(inst.NodeFeat) != inst.G.NumNodes() {
					t.Fatalf("instance %d: %d node features for %d nodes", i, len(inst.NodeFeat), inst.G.NumNodes())
				}
				if len(inst.EdgeFeat) != inst.G.NumEdges() {
					t.Fatalf("instance %d: %d edge features for %d edges", i, len(inst.EdgeFeat), inst.G.NumEdges())
				}
				for _, f := range inst.NodeFeat {
					if int(f) < 0 || int(f) >= d.NumNodeTypes {
						t.Fatalf("instance %d: node feature %d out of [0,%d)", i, f, d.NumNodeTypes)
					}
				}
				for _, f := range inst.EdgeFeat {
					if int(f) < 0 || int(f) >= d.NumEdgeTypes {
						t.Fatalf("instance %d: edge feature %d out of [0,%d)", i, f, d.NumEdgeTypes)
					}
				}
			}
		})
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := Generate("IMDB", smallCfg(1)); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("ZINC", smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("ZINC", smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Train {
		ga, gb := a.Train[i].G, b.Train[i].G
		if ga.NumNodes() != gb.NumNodes() || ga.NumEdges() != gb.NumEdges() {
			t.Fatalf("instance %d differs across same-seed runs", i)
		}
		if a.Train[i].Target != b.Train[i].Target {
			t.Fatalf("instance %d target differs: %v vs %v", i, a.Train[i].Target, b.Train[i].Target)
		}
	}
}

func TestZINCMatchesTableII(t *testing.T) {
	d := ZINC(Config{TrainSize: 200, ValSize: 20, TestSize: 20, Seed: 1})
	row := ComputeTableII(d)
	// Paper Table II: ZINC has ~23 nodes, ~50 directed edges, sparsity 0.096.
	if math.Abs(row.MeanNodes-23) > 2 {
		t.Errorf("mean nodes = %v, want ~23", row.MeanNodes)
	}
	if math.Abs(row.MeanEdges-50) > 5 {
		t.Errorf("mean directed edges = %v, want ~50", row.MeanEdges)
	}
	if math.Abs(row.Sparsity-0.096) > 0.03 {
		t.Errorf("sparsity = %v, want ~0.096", row.Sparsity)
	}
}

func TestAQSOLMatchesTableII(t *testing.T) {
	d := AQSOL(Config{TrainSize: 200, ValSize: 20, TestSize: 20, Seed: 1})
	row := ComputeTableII(d)
	// Paper Table II: AQSOL has ~18 nodes, ~36 directed edges.
	if math.Abs(row.MeanNodes-18) > 2 {
		t.Errorf("mean nodes = %v, want ~18", row.MeanNodes)
	}
	if math.Abs(row.MeanEdges-36) > 5 {
		t.Errorf("mean directed edges = %v, want ~36", row.MeanEdges)
	}
}

func TestCSLMatchesTableII(t *testing.T) {
	d := CSL(smallCfg(1))
	for i, inst := range d.All() {
		if inst.G.NumNodes() != 41 {
			t.Fatalf("instance %d: nodes = %d, want 41", i, inst.G.NumNodes())
		}
		if 2*inst.G.NumEdges() != 164 {
			t.Fatalf("instance %d: directed edges = %d, want 164", i, 2*inst.G.NumEdges())
		}
		for v := 0; v < 41; v++ {
			if inst.G.Degree(graph.NodeID(v)) != 4 {
				t.Fatalf("instance %d: degree(%d) = %d, want 4 (regular)", i, v, inst.G.Degree(graph.NodeID(v)))
			}
		}
		if inst.Label < 0 || inst.Label >= d.NumClasses {
			t.Fatalf("instance %d: label %d out of range", i, inst.Label)
		}
	}
}

func TestCSLClassBalance(t *testing.T) {
	d := CSL(Config{TrainSize: 80, ValSize: 0, TestSize: 0, Seed: 1})
	counts := make([]int, d.NumClasses)
	for _, inst := range d.Train {
		counts[inst.Label]++
	}
	for c, n := range counts {
		if n != 20 {
			t.Errorf("class %d count = %d, want 20 (round-robin)", c, n)
		}
	}
}

func TestCYCLESLabelsAndCycles(t *testing.T) {
	d := CYCLES(smallCfg(2))
	pos, neg := 0, 0
	for i, inst := range d.All() {
		// Every instance has exactly one planted cycle: m = n (cycle of
		// length L contributes L edges on L vertices, tree adds n-L).
		if inst.G.NumEdges() != inst.G.NumNodes() {
			t.Fatalf("instance %d: m=%d n=%d, want m=n", i, inst.G.NumEdges(), inst.G.NumNodes())
		}
		onCycle := 0
		for _, f := range inst.NodeFeat {
			if f == 0 {
				onCycle++
			}
		}
		switch inst.Label {
		case 1:
			pos++
			if onCycle != cyclesPositiveLen {
				t.Fatalf("instance %d: positive with %d cycle nodes", i, onCycle)
			}
		case 0:
			neg++
			if onCycle != cyclesNegativeLen {
				t.Fatalf("instance %d: negative with %d cycle nodes", i, onCycle)
			}
		default:
			t.Fatalf("instance %d: label %d", i, inst.Label)
		}
	}
	if pos == 0 || neg == 0 {
		t.Errorf("class balance: %d positive, %d negative", pos, neg)
	}
}

func TestCYCLESMatchesTableII(t *testing.T) {
	d := CYCLES(Config{TrainSize: 100, ValSize: 10, TestSize: 10, Seed: 3})
	row := ComputeTableII(d)
	// Paper Table II: CYCLES has ~49 nodes, ~88 directed edges... our
	// construction has m = n undirected (98 directed at n=49); the paper's
	// 88 implies slightly sparser graphs. Accept the small gap: sparsity
	// is within range.
	if math.Abs(row.MeanNodes-49) > 3 {
		t.Errorf("mean nodes = %v, want ~49", row.MeanNodes)
	}
	if row.Sparsity < 0.03 || row.Sparsity > 0.05 {
		t.Errorf("sparsity = %v, want ~0.036-0.042", row.Sparsity)
	}
}

func TestMoleculesRespectDegreeCap(t *testing.T) {
	d := ZINC(smallCfg(4))
	for i, inst := range d.All() {
		for v := 0; v < inst.G.NumNodes(); v++ {
			if deg := inst.G.Degree(graph.NodeID(v)); deg > 4 {
				t.Fatalf("instance %d: degree(%d) = %d > 4", i, v, deg)
			}
		}
	}
}

func TestMoleculesConnected(t *testing.T) {
	d := AQSOL(smallCfg(5))
	for i, inst := range d.All() {
		if _, comps := inst.G.ConnectedComponents(); comps != 1 {
			t.Fatalf("instance %d: %d components, want 1 (tree backbone)", i, comps)
		}
	}
}

func TestTableIIIShapes(t *testing.T) {
	t.Run("CSL regular gives zeros and KS 1", func(t *testing.T) {
		d := CSL(smallCfg(6))
		row := ComputeTableIII(d, 0, 20, 1)
		if row.MeanDegStd != 0 {
			t.Errorf("μ(σ(d)) = %v, want 0 for regular graphs", row.MeanDegStd)
		}
		if row.StdDegMin != 0 || row.StdDegMax != 0 || row.StdDegMean != 0 {
			t.Errorf("σ(min/max/mean) = %v/%v/%v, want 0", row.StdDegMin, row.StdDegMax, row.StdDegMean)
		}
		if row.MeanKS < 0.999 {
			t.Errorf("μ(ε) = %v, want 1 for identical distributions", row.MeanKS)
		}
	})
	t.Run("ZINC consistent distributions", func(t *testing.T) {
		d := ZINC(smallCfg(6))
		row := ComputeTableIII(d, 0, 30, 1)
		if row.MeanDegStd <= 0 || row.MeanDegStd > 1.2 {
			t.Errorf("μ(σ(d)) = %v, want small positive (paper: 0.51)", row.MeanDegStd)
		}
		if row.MeanKS < 0.5 {
			t.Errorf("μ(ε) = %v, want near 1 (paper: 0.94)", row.MeanKS)
		}
	})
}

func TestTargetsVaryAndAreFinite(t *testing.T) {
	d := ZINC(smallCfg(8))
	first := d.Train[0].Target
	varies := false
	for _, inst := range d.Train {
		if math.IsNaN(inst.Target) || math.IsInf(inst.Target, 0) {
			t.Fatalf("non-finite target %v", inst.Target)
		}
		if inst.Target != first {
			varies = true
		}
	}
	if !varies {
		t.Error("all targets identical; nothing to learn")
	}
}

func TestDegreeHistogram(t *testing.T) {
	d := ZINC(smallCfg(11))
	h := DegreeHistogram(d, 6)
	total := 0
	for _, c := range h {
		total += c
	}
	wantTotal := 0
	for _, inst := range d.All() {
		wantTotal += inst.G.NumNodes()
	}
	if total != wantTotal {
		t.Errorf("histogram total = %d, want %d", total, wantTotal)
	}
}

func TestTaskString(t *testing.T) {
	if TaskRegression.String() != "regression" || TaskClassification.String() != "classification" {
		t.Error("Task.String mismatch")
	}
	if Task(99).String() != "Task(99)" {
		t.Errorf("unknown task string = %q", Task(99).String())
	}
}

func BenchmarkGenerateZINC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ZINC(Config{TrainSize: 100, ValSize: 10, TestSize: 10, Seed: int64(i)})
	}
}
