package serve

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mega/internal/models"
	"mega/internal/train"
)

func TestPrecisionDefaultsToF64(t *testing.T) {
	s, _, _ := trainedServer(t, Options{MaxBatch: 1})
	if got := s.EffectiveOptions().Precision; got != PrecisionF64 {
		t.Fatalf("default precision %q, want %q", got, PrecisionF64)
	}
	if got := s.MetricsSnapshot(false).Precision; got != PrecisionF64 {
		t.Fatalf("metrics precision %q, want %q", got, PrecisionF64)
	}
}

func TestPrecisionRejectsUnsupportedModel(t *testing.T) {
	cfg := models.Config{Dim: 16, Layers: 1, Heads: 2, NodeTypes: 8, EdgeTypes: 4, OutDim: 1, Seed: 1}
	m := models.NewGatedGCN(cfg)
	_, err := New(m, train.Checkpoint{Model: "GCN", Config: cfg}, Options{Precision: PrecisionF32})
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("GCN + f32: err = %v, want ErrBadOptions", err)
	}
}

// TestPrecisionF32EndToEnd is the checkpoint→serve acceptance path for the
// fast path: train, checkpoint to a directory, serve it back with
// Precision f32 (NewFromCheckpointDir — the downcast happens at load), and
// compare every prediction against a float64 server over the same
// checkpoint within the divergence envelope.
func TestPrecisionF32EndToEnd(t *testing.T) {
	s64, ds, _ := trainedServer(t, Options{MaxBatch: 4})

	dir := t.TempDir()
	path := train.CheckpointPath(dir, 1)
	if err := train.SaveCheckpointFile(path, s64.Meta(), s64.model); err != nil {
		t.Fatal(err)
	}
	s32, err := NewFromCheckpointDir(dir, Options{MaxBatch: 4, Precision: PrecisionF32})
	if err != nil {
		t.Fatal(err)
	}
	defer s32.Close()

	for i, inst := range ds.Val {
		p64, err := s64.Predict(inst)
		if err != nil {
			t.Fatal(err)
		}
		p32, err := s32.Predict(inst)
		if err != nil {
			t.Fatal(err)
		}
		if p64.Precision != "" {
			t.Fatalf("f64 prediction carries precision %q", p64.Precision)
		}
		if p32.Precision != PrecisionF32 {
			t.Fatalf("f32 prediction precision %q, want %q", p32.Precision, PrecisionF32)
		}
		if len(p32.Output) != len(p64.Output) {
			t.Fatalf("output widths %d/%d", len(p32.Output), len(p64.Output))
		}
		for j := range p64.Output {
			diff := math.Abs(p32.Output[j] - p64.Output[j])
			den := math.Max(math.Abs(p64.Output[j]), 1e-2)
			if diff/den > 5e-3 {
				t.Errorf("val[%d] output[%d]: f32 %v vs f64 %v (rel %.3g)",
					i, j, p32.Output[j], p64.Output[j], diff/den)
			}
		}
	}

	// The f32 path must show up in the arena occupancy counters.
	snap := s32.MetricsSnapshot(false)
	if snap.Precision != PrecisionF32 {
		t.Errorf("metrics precision %q", snap.Precision)
	}
	if snap.Arena.F32.Borrows == 0 || snap.Arena.F32.PeakBytes == 0 {
		t.Errorf("f32 serving left no arena footprint: %+v", snap.Arena.F32)
	}
	if snap.Arena.F32.InUseBytes != 0 {
		t.Errorf("f32 arena bytes still checked out after serving: %+v", snap.Arena.F32)
	}
}

// TestPrecisionF32Deterministic pins request-order independence: the same
// instance predicted twice through the f32 path answers bit-identically
// (frozen weights, deterministic kernels, batch of one).
func TestPrecisionF32Deterministic(t *testing.T) {
	s64, ds, model := trainedServer(t, Options{MaxBatch: 1})
	s, err := New(model, s64.Meta(), Options{MaxBatch: 1, Precision: PrecisionF32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inst := ds.Val[0]
	a, err := s.Predict(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Predict(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit {
		t.Error("second predict should hit the representation cache")
	}
	for j := range a.Output {
		if a.Output[j] != b.Output[j] {
			t.Fatalf("repeat predict differs at %d: %v vs %v", j, a.Output[j], b.Output[j])
		}
	}
}

// TestPrecisionF32WithUpdate composes the fast path with the mutation
// subsystem: /update publishes a repaired representation, and the f32
// forward serves the mutated graph from it.
func TestPrecisionF32WithUpdate(t *testing.T) {
	s64, ds, model := trainedServer(t, Options{MaxBatch: 1})
	s, err := New(model, s64.Meta(), Options{MaxBatch: 1, Precision: PrecisionF32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inst := ds.Val[0]
	g := inst.G
	base := make([][2]int32, g.NumEdges())
	for i := range base {
		e := g.EdgeAt(i)
		base[i] = [2]int32{e.Src, e.Dst}
	}
	removes, adds := pickMutations(t, g, 1, 1)
	var up UpdateResponse
	code, raw := postJSON(t, ts.URL+"/update", UpdateRequest{
		Base:   &GraphRequest{NumNodes: g.NumNodes(), Edges: base},
		Remove: removes,
		Add:    adds,
	}, &up)
	if code != http.StatusOK {
		t.Fatalf("/update = %d: %s", code, raw)
	}
	var pred Prediction
	code, raw = postJSON(t, ts.URL+"/predict", GraphRequest{
		NumNodes: g.NumNodes(), Edges: mutatedEdges(t, base, removes, adds), NodeFeats: inst.NodeFeat,
	}, &pred)
	if code != http.StatusOK {
		t.Fatalf("/predict = %d: %s", code, raw)
	}
	if !pred.CacheHit {
		t.Error("post-update predict should hit the published representation")
	}
	if pred.Precision != PrecisionF32 {
		t.Errorf("post-update precision %q, want %q", pred.Precision, PrecisionF32)
	}

	// /metrics must expose the arena block for dashboards.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw2, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw2)
	for _, want := range []string{`"arena"`, `"bucket_hits"`, `"precision": "f32"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
