package dynamic

import (
	"math"
	"math/rand"
	"testing"

	"mega/internal/datasets"
	"mega/internal/graph"
	"mega/internal/models"
	"mega/internal/traverse"
)

// FuzzMaintainerEquivalence drives random AddEdge/RemoveEdge sequences and
// fused batches — including removals of edges earlier updates inserted —
// and asserts the maintained rep is byte-identical to a from-scratch
// preprocess of the live graph, mid-stream and at the end. This is the
// corpus the dynamic-check CI gate runs.
func FuzzMaintainerEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(42), []byte{1, 1, 1, 1, 0, 0, 0, 0, 9, 9})
	f.Add(int64(-7), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 3, 5})
	f.Add(int64(2026), []byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + int(uint64(seed)%10)
		g := graph.ErdosRenyiM(rng, n, 2*n)
		m, err := NewMaintainer(g, traverse.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, b := range ops {
			if b&16 != 0 {
				// Fused multi-mutation batch: grow a batch greedily,
				// keeping only mutations the batch validator accepts, then
				// apply it through the single-repair path.
				var rm, ad [][2]graph.NodeID
				for j := 0; j < int(b&7)+2; j++ {
					u := graph.NodeID(rng.Intn(n))
					v := graph.NodeID(rng.Intn(n))
					if u == v {
						continue
					}
					e := [2]graph.NodeID{u, v}
					if j&1 == 0 {
						if m.ValidateBatch(rm, append(ad, e)) == nil {
							ad = append(ad, e)
						}
					} else {
						if m.ValidateBatch(append(rm, e), ad) == nil {
							rm = append(rm, e)
						}
					}
				}
				if _, err := m.ApplyBatch(rm, ad); err != nil {
					t.Fatalf("validated batch rejected: %v", err)
				}
			} else {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				if u == v {
					continue
				}
				if b&1 == 0 {
					_, err = m.AddEdge(u, v)
				} else {
					_, err = m.RemoveEdge(u, v)
				}
				if err != nil {
					continue // duplicate/missing edges are expected misses
				}
			}
			if b&7 == 7 {
				// Occasionally check mid-stream, not only at the end.
				if msg := canonicalMismatch(m); msg != "" {
					t.Fatalf("mid-stream: %s", msg)
				}
			}
		}
		if msg := canonicalMismatch(m); msg != "" {
			t.Fatal(msg)
		}
	})
}

// buildInstance wraps the maintainer's live graph with all-zero categorical
// features sized to the current edge list.
func buildInstance(m *Maintainer) datasets.Instance {
	g := m.Graph()
	return datasets.Instance{
		G:        g,
		NodeFeat: make([]int32, g.NumNodes()),
		EdgeFeat: make([]int32, g.NumEdges()),
	}
}

func forwardWith(t *testing.T, model *models.GT, inst datasets.Instance, prep *models.PreparedRep) []float64 {
	t.Helper()
	ctx, err := models.NewMegaContextFromReps(
		[]datasets.Instance{inst}, []*models.PreparedRep{prep}, nil, model.Config().Dim)
	if err != nil {
		t.Fatal(err)
	}
	out := model.Forward(ctx)
	return append([]float64(nil), out.Data...)
}

func forwardSharded(t *testing.T, model *models.GT, inst datasets.Instance, prep *models.PreparedRep, workers int) []float64 {
	t.Helper()
	ctx, err := models.NewMegaContextFromReps(
		[]datasets.Instance{inst}, []*models.PreparedRep{prep}, nil, model.Config().Dim)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := models.NewShardEngine(model, ctx, workers)
	if err != nil {
		t.Fatal(err)
	}
	out := eng.Forward()
	return append([]float64(nil), out.Data...)
}

func assertBitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: output %d = %x, want %x (values %g vs %g)",
				label, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

// TestPredictionBitIdentity is the acceptance criterion end to end at the
// model layer: after a random mutation stream, predictions on the repaired
// rep are bit-identical (Float64bits) to predictions on a full
// re-preprocess of the mutated graph — for both the monolithic and sharded
// engines.
func TestPredictionBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.BarabasiAlbert(rng, 80, 2)
	opts := models.MegaOptions{}
	m, err := NewMaintainer(g, opts.TraverseOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		u := graph.NodeID(rng.Intn(80))
		v := graph.NodeID(rng.Intn(80))
		if u == v {
			continue
		}
		if rng.Intn(3) == 0 {
			_, _ = m.RemoveEdge(u, v)
		} else {
			_, _ = m.AddEdge(u, v)
		}
	}

	model := models.NewGT(models.Config{
		Dim: 16, Layers: 2, Heads: 2, NodeTypes: 4, EdgeTypes: 4, OutDim: 1, Seed: 5,
	})
	inst := buildInstance(m)
	maintained := &models.PreparedRep{Rep: m.Rep(), Res: m.Result()}
	fresh, err := models.PrepareMega(m.Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}

	got := forwardWith(t, model, inst, maintained)
	want := forwardWith(t, model, inst, fresh)
	assertBitsEqual(t, "monolithic", got, want)

	gotSharded := forwardSharded(t, model, inst, maintained, 2)
	wantSharded := forwardSharded(t, model, inst, fresh, 2)
	assertBitsEqual(t, "sharded(maintained vs fresh)", gotSharded, wantSharded)
	assertBitsEqual(t, "sharded vs monolithic", gotSharded, want)
}

// TestAdoptedRepPredictionIdentity mirrors the serving flow: adopt a cached
// PreparedRep, mutate, and compare against a full re-preprocess.
func TestAdoptedRepPredictionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.BarabasiAlbert(rng, 60, 2)
	opts := models.MegaOptions{}
	prep, err := models.PrepareMega(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Adopt(prep.Rep, prep.Res, opts.TraverseOptions())
	if err != nil {
		t.Fatal(err)
	}
	var adds [][2]graph.NodeID
	for u := graph.NodeID(0); len(adds) < 2 && u < 60; u++ {
		for v := u + 1; len(adds) < 2 && v < 60; v++ {
			if !g.HasEdge(u, v) {
				adds = append(adds, [2]graph.NodeID{u, v})
			}
		}
	}
	e0 := g.EdgeAt(0)
	if _, err := m.ApplyBatch([][2]graph.NodeID{{e0.Src, e0.Dst}}, adds); err != nil {
		t.Fatal(err)
	}
	checkCanonical(t, m)

	model := models.NewGT(models.Config{
		Dim: 16, Layers: 1, Heads: 2, NodeTypes: 4, EdgeTypes: 4, OutDim: 1, Seed: 9,
	})
	inst := buildInstance(m)
	fresh, err := models.PrepareMega(m.Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	got := forwardWith(t, model, inst, &models.PreparedRep{Rep: m.Rep(), Res: m.Result()})
	want := forwardWith(t, model, inst, fresh)
	assertBitsEqual(t, "adopted", got, want)
}
