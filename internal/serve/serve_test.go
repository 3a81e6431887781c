package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mega/internal/datasets"
	"mega/internal/models"
	"mega/internal/train"
)

// trainedServer trains a tiny GT on ZINC, round-trips it through a
// checkpoint file, and serves the loaded model — the full
// megatrain → megaserve pipeline in-process. GT is used because its
// LayerNorm is per-row: predictions are independent of batch composition,
// which is the property the batched-equals-single assertions need
// (GatedGCN's BatchNorm is batch-dependent by construction).
func trainedServer(t *testing.T, opts Options) (*Server, *datasets.Dataset, models.Model) {
	t.Helper()
	ds := datasets.ZINC(datasets.Config{TrainSize: 16, ValSize: 12, TestSize: 1, Seed: 11})
	res, err := train.Run(ds, train.Options{
		Model: "GT", Engine: models.EngineMega,
		Dim: 16, Layers: 1, Heads: 2, BatchSize: 8, Epochs: 1, Seed: 11,
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	path := filepath.Join(t.TempDir(), "gt.ckpt")
	if err := train.SaveCheckpointFile(path, res.Checkpoint(ds.Name), res.Model); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	s, err := NewFromCheckpointFile(path, opts)
	if err != nil {
		t.Fatalf("serve from checkpoint: %v", err)
	}
	t.Cleanup(s.Close)
	return s, ds, res.Model
}

// directForward runs one instance through the model outside the service.
func directForward(t *testing.T, model models.Model, engine models.EngineKind, inst datasets.Instance, dim int) []float64 {
	t.Helper()
	var ctx *models.Context
	var err error
	if engine == models.EngineMega {
		ctx, err = models.NewMegaContext([]datasets.Instance{inst}, models.MegaOptions{}, nil, dim)
	} else {
		ctx, err = models.NewDGLContext([]datasets.Instance{inst}, nil, dim)
	}
	if err != nil {
		t.Fatalf("direct context: %v", err)
	}
	out := model.Forward(ctx)
	row := make([]float64, out.Cols())
	copy(row, out.Data[:out.Cols()])
	return row
}

func TestServedPredictionMatchesDirectForward(t *testing.T) {
	s, ds, model := trainedServer(t, Options{MaxBatch: 1})
	inst := ds.Val[0]
	pred, err := s.Predict(inst)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	want := directForward(t, model, models.EngineMega, inst, s.Meta().Config.Dim)
	if len(pred.Output) != len(want) {
		t.Fatalf("output width %d, want %d", len(pred.Output), len(want))
	}
	for i := range want {
		if math.Abs(pred.Output[i]-want[i]) > 1e-12 {
			t.Fatalf("served output[%d] = %v, direct = %v", i, pred.Output[i], want[i])
		}
	}
	if pred.Label != nil {
		t.Error("regression prediction should not carry a label")
	}
}

func TestRepeatedRequestHitsCache(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1})
	inst := ds.Val[1]
	first, err := s.Predict(inst)
	if err != nil {
		t.Fatalf("first predict: %v", err)
	}
	if first.CacheHit {
		t.Error("first request cannot be a cache hit")
	}
	second, err := s.Predict(inst)
	if err != nil {
		t.Fatalf("second predict: %v", err)
	}
	if !second.CacheHit {
		t.Error("identical second request should hit the path cache")
	}
	for i := range first.Output {
		if first.Output[i] != second.Output[i] {
			t.Fatalf("cache hit changed the prediction: %v vs %v", first.Output, second.Output)
		}
	}
	st := s.CacheStats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Errorf("cache stats = %+v, want >=1 hit and >=1 miss", st)
	}
}

func TestBatchedPredictionsMatchSingle(t *testing.T) {
	// Eight requests queue up behind a held worker and run as one batch of
	// eight; each answer must equal the single-graph forward.
	s, ds, model := trainedServer(t, Options{MaxBatch: 8, Workers: 1})
	insts := ds.Val[:8]
	plug := holdWorker(t, s, ds.Val[8], 300*time.Millisecond)
	results := enqueueBehind(t, s, insts)
	if err := <-plug; err != nil {
		t.Fatalf("plug: %v", err)
	}
	for i, done := range results {
		out := <-done
		if out.err != nil {
			t.Fatalf("predict %d: %v", i, out.err)
		}
		want := directForward(t, model, models.EngineMega, insts[i], s.Meta().Config.Dim)
		for j := range want {
			if math.Abs(out.pred.Output[j]-want[j]) > 1e-9 {
				t.Errorf("batched output[%d][%d] = %v, single = %v", i, j, out.pred.Output[j], want[j])
			}
		}
	}
	snap := s.MetricsSnapshot(false)
	if snap.Requests != 9 || snap.Batches != 2 || snap.MaxBatchSize != 8 {
		t.Errorf("metrics: %d requests over %d batches (max %d), want 9 over 2 (max 8)",
			snap.Requests, snap.Batches, snap.MaxBatchSize)
	}
}

func TestDGLEngineServing(t *testing.T) {
	s, ds, model := trainedServer(t, Options{Engine: models.EngineDGL, MaxBatch: 1})
	inst := ds.Val[2]
	pred, err := s.Predict(inst)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	want := directForward(t, model, models.EngineDGL, inst, s.Meta().Config.Dim)
	for i := range want {
		if math.Abs(pred.Output[i]-want[i]) > 1e-12 {
			t.Fatalf("dgl served output[%d] = %v, direct = %v", i, pred.Output[i], want[i])
		}
	}
	if st := s.CacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("dgl engine should not touch the path cache: %+v", st)
	}
}

func TestClassificationLabel(t *testing.T) {
	cfg := models.Config{Dim: 16, Layers: 1, Heads: 2, NodeTypes: 4, EdgeTypes: 1, OutDim: 2, Seed: 5}
	model, err := train.NewModel("GT", cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := train.Checkpoint{Model: "GT", Config: cfg, Task: datasets.TaskClassification, Dataset: "CYCLES"}
	s, err := New(model, meta, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ds := datasets.CYCLES(datasets.Config{TrainSize: 1, ValSize: 2, TestSize: 1, Seed: 5})
	pred, err := s.Predict(ds.Val[0])
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if pred.Label == nil {
		t.Fatal("classification prediction should carry an argmax label")
	}
	best := 0
	for j := range pred.Output {
		if pred.Output[j] > pred.Output[best] {
			best = j
		}
	}
	if *pred.Label != best {
		t.Errorf("label = %d, argmax = %d", *pred.Label, best)
	}
}

func TestValidationRejectsBadInstances(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1})
	good := ds.Val[3]

	badNode := good
	badNode.NodeFeat = append([]int32(nil), good.NodeFeat...)
	badNode.NodeFeat[0] = int32(s.Meta().Config.NodeTypes) // out of vocabulary
	if _, err := s.Predict(badNode); !errors.Is(err, ErrInvalidInstance) {
		t.Errorf("out-of-vocab node: err = %v", err)
	}

	badLen := good
	badLen.EdgeFeat = good.EdgeFeat[:1]
	if _, err := s.Predict(badLen); !errors.Is(err, ErrInvalidInstance) {
		t.Errorf("edge feature length: err = %v", err)
	}

	if _, err := s.Predict(datasets.Instance{}); !errors.Is(err, ErrInvalidInstance) {
		t.Errorf("empty instance: err = %v", err)
	}
}

func TestPredictAfterClose(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Predict(ds.Val[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestHTTPEndToEnd drives the HTTP surface: predict twice (second is a
// cache hit), then confirm /metrics reports it — the acceptance demo as a
// test.
func TestHTTPEndToEnd(t *testing.T) {
	s, ds, model := trainedServer(t, Options{MaxBatch: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inst := ds.Val[4]
	reqBody := GraphRequest{NumNodes: inst.G.NumNodes(), NodeFeats: inst.NodeFeat, EdgeFeats: inst.EdgeFeat}
	for _, e := range inst.G.Edges() {
		reqBody.Edges = append(reqBody.Edges, [2]int32{e.Src, e.Dst})
	}
	body, _ := json.Marshal(reqBody)

	post := func() Prediction {
		t.Helper()
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /predict: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var pred Prediction
		if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return pred
	}

	first := post()
	second := post()
	if first.CacheHit {
		t.Error("first HTTP request should miss the cache")
	}
	if !second.CacheHit {
		t.Error("second identical HTTP request should hit the cache")
	}
	want := directForward(t, model, models.EngineMega, inst, s.Meta().Config.Dim)
	for i := range want {
		if math.Abs(second.Output[i]-want[i]) > 1e-9 {
			t.Errorf("HTTP output[%d] = %v, direct = %v", i, second.Output[i], want[i])
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if snap.Cache.Hits < 1 {
		t.Errorf("metrics cache hits = %d, want >= 1", snap.Cache.Hits)
	}
	if snap.Requests < 2 || snap.TotalLatency.Count < 2 {
		t.Errorf("metrics undercounted: %+v", snap)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Errorf("healthz: %v %v", err, hz.StatusCode)
	}
	hz.Body.Close()
}

func TestHTTPRejectsBadRequests(t *testing.T) {
	s, _, _ := trainedServer(t, Options{MaxBatch: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", "{nope", http.StatusBadRequest},
		{"edge out of range", `{"num_nodes":2,"edges":[[0,5]]}`, http.StatusBadRequest},
		{"empty graph", `{"num_nodes":0,"edges":[]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict status = %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentServingSharedArena hammers the service from many client
// goroutines so several workers run fused-attention forwards against the
// shared scratch arena at once. Predictions must stay bit-identical to a
// direct forward regardless of which pooled buffers each batch drew —
// and, under -race, the pool itself must be data-race-free.
func TestConcurrentServingSharedArena(t *testing.T) {
	s, ds, model := trainedServer(t, Options{MaxBatch: 1, Workers: 4})
	dim := s.Meta().Config.Dim
	want := make([][]float64, len(ds.Val))
	for i, inst := range ds.Val {
		want[i] = directForward(t, model, models.EngineMega, inst, dim)
	}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, inst := range ds.Val {
					pred, err := s.Predict(inst)
					if err != nil {
						t.Errorf("client %d predict %d: %v", c, i, err)
						return
					}
					for j := range want[i] {
						if pred.Output[j] != want[i][j] {
							t.Errorf("client %d inst %d: output[%d] = %v, want %v",
								c, i, j, pred.Output[j], want[i][j])
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if s.arena.Buffered() == 0 {
		t.Error("serve workers never returned scratch to the shared arena")
	}
}
