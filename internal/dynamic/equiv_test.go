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
// preprocess of the live graph, mid-stream and at the end, and that every
// batch's Apply on the previous graph equals the maintainer's ApplyBatch
// field for field (the same rejections included). This is the corpus the
// dynamic-check CI gate runs.
func FuzzMaintainerEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(42), []byte{1, 1, 1, 1, 0, 0, 0, 0, 9, 9})
	f.Add(int64(-7), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 3, 5})
	f.Add(int64(2026), []byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + int(uint64(seed)%10)
		g := graph.ErdosRenyiM(rng, n, 2*n)
		opts := traverse.DefaultOptions()
		m, err := NewMaintainer(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, b := range ops {
			var rm, ad [][2]graph.NodeID
			if b&16 != 0 {
				// Fused multi-mutation batch: grow a batch greedily,
				// keeping only mutations the batch validator accepts, then
				// apply it through the single-repair path.
				for j := 0; j < int(b&7)+2; j++ {
					u := graph.NodeID(rng.Intn(n))
					v := graph.NodeID(rng.Intn(n))
					if u == v {
						continue
					}
					e := [2]graph.NodeID{u, v}
					if j&1 == 0 {
						if validateBatch(m.Graph(), rm, append(ad, e)) == nil {
							ad = append(ad, e)
						}
					} else {
						if validateBatch(m.Graph(), append(rm, e), ad) == nil {
							rm = append(rm, e)
						}
					}
				}
			} else {
				// One AddEdge or RemoveEdge; duplicate/missing edges are
				// expected misses.
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				if u == v {
					continue
				}
				if b&1 == 0 {
					ad = [][2]graph.NodeID{{u, v}}
				} else {
					rm = [][2]graph.NodeID{{u, v}}
				}
			}
			rep, res, applyErr := Apply(m.Graph(), opts, rm, ad)
			_, err := m.ApplyBatch(rm, ad)
			if (err == nil) != (applyErr == nil) || (err != nil && err.Error() != applyErr.Error()) {
				t.Fatalf("ApplyBatch error %v, Apply error %v", err, applyErr)
			}
			if b&16 != 0 && err != nil {
				t.Fatalf("validated batch rejected: %v", err)
			}
			if rep != nil {
				if msg := repDiff(rep, res, m.Rep(), m.Result()); msg != "" {
					t.Fatalf("Apply vs ApplyBatch: %s", msg)
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

// TestAppliedRepPredictionIdentity mirrors the serving flow: PrepareMega a
// base (the rep /update finds in the cache), Apply a batch to its graph,
// predict on the successor, and compare against a full re-preprocess.
func TestAppliedRepPredictionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.BarabasiAlbert(rng, 60, 2)
	opts := models.MegaOptions{}
	prep, err := models.PrepareMega(g, opts)
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
	rep, res, err := Apply(prep.Res.Graph, opts.TraverseOptions(), [][2]graph.NodeID{{e0.Src, e0.Dst}}, adds)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := models.PrepareMega(res.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	if msg := repDiff(rep, res, fresh.Rep, fresh.Res); msg != "" {
		t.Fatal(msg)
	}

	model := models.NewGT(models.Config{
		Dim: 16, Layers: 1, Heads: 2, NodeTypes: 4, EdgeTypes: 4, OutDim: 1, Seed: 9,
	})
	inst := datasets.Instance{
		G:        res.Graph,
		NodeFeat: make([]int32, res.Graph.NumNodes()),
		EdgeFeat: make([]int32, res.Graph.NumEdges()),
	}
	got := forwardWith(t, model, inst, &models.PreparedRep{Rep: rep, Res: res})
	want := forwardWith(t, model, inst, fresh)
	assertBitsEqual(t, "applied", got, want)
}
