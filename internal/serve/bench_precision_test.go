package serve

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"mega/internal/datasets"
	"mega/internal/graph"
	"mega/internal/models"
	"mega/internal/tensor"
	"mega/internal/train"
)

// Envelope the f32 serving path must stay inside relative to the float64
// forward, matching the differential suite in internal/models. The bench
// asserts it on every run — a fast path outside the envelope is a bug, not
// a slow benchmark.
const (
	benchPrecMaxULP    = 1 << 14
	benchPrecMaxRelErr = 5e-3
	benchPrecRelFloor  = 1e-2
)

// TestWriteBenchPrecision regenerates BENCH_precision.json: serve-side
// throughput of the float32 fast path (Options.Precision == "f32": one
// checkpoint downcast at load, tape-free head-major kernels, pooled f32
// arena scratch) against the float64 engine over identical servers, graph
// pools, and warm representation caches, per workload class. Divergence
// between the two servers' answers is measured and asserted inside the ULP
// envelope on every run; the ≥1.5× acceptance bar applies to full runs
// (`make bench-precision`). BENCH_PRECISION_FAST=1 shrinks the timed
// rounds and skips the speedup assertion for the CI smoke.
func TestWriteBenchPrecision(t *testing.T) {
	out := os.Getenv("BENCH_PRECISION_OUT")
	if out == "" {
		t.Skip("set BENCH_PRECISION_OUT=<path> to run the precision bench (make bench-precision)")
	}
	fast := os.Getenv("BENCH_PRECISION_FAST") != ""

	cfg := models.Config{Dim: 64, Layers: 4, Heads: 4, NodeTypes: 28, EdgeTypes: 4, OutDim: 1, Seed: 3}
	m := models.NewGT(cfg)
	meta := train.Checkpoint{Model: "GT", Config: cfg, Task: datasets.TaskRegression, Dataset: "synthetic-ba"}

	s64, err := New(m, meta, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s64.Close()
	s32, err := New(m, meta, Options{MaxBatch: 1, Precision: PrecisionF32})
	if err != nil {
		t.Fatal(err)
	}
	defer s32.Close()

	classes := []struct {
		Name  string
		Nodes int
	}{
		{"small", 32},
		{"medium", 96},
		{"large", 224},
	}
	const graphsPerClass = 6
	rounds := 20
	if fast {
		rounds = 2
	}

	type row struct {
		Class     string  `json:"class"`
		Nodes     int     `json:"nodes"`
		Graphs    int     `json:"graphs"`
		Predicts  int     `json:"predicts_per_chunk"`
		Rounds    int     `json:"rounds"`
		F64NsOp   int64   `json:"f64_ns_per_predict"`
		F32NsOp   int64   `json:"f32_ns_per_predict"`
		F64RPS    float64 `json:"f64_rps"`
		F32RPS    float64 `json:"f32_rps"`
		Speedup   float64 `json:"speedup"`
		MaxULP    int64   `json:"max_ulp"`
		MaxRelErr float64 `json:"max_rel_err"`
	}
	var rows []row

	rng := rand.New(rand.NewSource(41))
	for _, class := range classes {
		pool := make([]datasets.Instance, graphsPerClass)
		for i := range pool {
			g := graph.BarabasiAlbert(rng, class.Nodes, 2)
			nf := make([]int32, class.Nodes)
			ef := make([]int32, g.NumEdges())
			for j := range nf {
				nf[j] = int32(rng.Intn(cfg.NodeTypes))
			}
			for j := range ef {
				ef[j] = int32(rng.Intn(cfg.EdgeTypes))
			}
			pool[i] = datasets.Instance{G: g, NodeFeat: nf, EdgeFeat: ef, Target: 1}
		}

		// Warm both servers' representation caches and collect the
		// divergence sample: every answer pair, not a subsample.
		var got32 []float32
		var ref64 []float64
		for _, inst := range pool {
			p64, err := s64.Predict(inst)
			if err != nil {
				t.Fatal(err)
			}
			p32, err := s32.Predict(inst)
			if err != nil {
				t.Fatal(err)
			}
			if p32.Precision != PrecisionF32 {
				t.Fatalf("fast-path prediction carries precision %q", p32.Precision)
			}
			ref64 = append(ref64, p64.Output...)
			got32 = append(got32, tensor.DowncastSlice(p32.Output)...)
		}
		div := tensor.MeasureDivergence(got32, ref64, benchPrecRelFloor)
		if err := div.Within(benchPrecMaxULP, benchPrecMaxRelErr); err != nil {
			t.Errorf("class %s outside divergence envelope: %v", class.Name, err)
		}

		// Interleave f64 and f32 chunks and keep each side's fastest chunk:
		// on a shared 1-vCPU box single long blocks are at the mercy of
		// frequency and GC phase, and min-of-chunks removes that common-mode
		// noise from the ratio.
		predicts := len(pool)
		chunk := func(s *Server) time.Duration {
			start := time.Now()
			for _, inst := range pool {
				if _, err := s.Predict(inst); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start)
		}
		d64, d32 := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < rounds; r++ {
			if d := chunk(s64); d < d64 {
				d64 = d
			}
			if d := chunk(s32); d < d32 {
				d32 = d
			}
		}

		r := row{
			Class:     class.Name,
			Nodes:     class.Nodes,
			Graphs:    len(pool),
			Predicts:  predicts,
			F64NsOp:   d64.Nanoseconds() / int64(predicts),
			F32NsOp:   d32.Nanoseconds() / int64(predicts),
			F64RPS:    precRound2(float64(predicts) / d64.Seconds()),
			F32RPS:    precRound2(float64(predicts) / d32.Seconds()),
			Rounds:    rounds,
			MaxULP:    div.MaxULP,
			MaxRelErr: div.MaxRelErr,
		}
		r.Speedup = precRound2(float64(r.F64NsOp) / float64(r.F32NsOp))
		rows = append(rows, r)
		t.Logf("%-6s n=%-3d  f64 %7.2fms  f32 %7.2fms  speedup %.2fx  max ULP %d  max rel %.2g",
			class.Name, class.Nodes, float64(r.F64NsOp)/1e6, float64(r.F32NsOp)/1e6, r.Speedup, r.MaxULP, r.MaxRelErr)
	}

	best := 0.0
	for _, r := range rows {
		if r.Speedup > best {
			best = r.Speedup
		}
	}
	if !fast && best < 1.5 {
		t.Errorf("acceptance: no workload class reached 1.5x (best %.2fx)", best)
	}

	snap := s32.MetricsSnapshot(false)
	doc := map[string]any{
		"schema_version": 1,
		"description": "Serve-side throughput of the float32 inference fast path (-precision f32: " +
			"checkpoint downcast once at load, tape-free head-major fused kernels, pooled f32 arena " +
			"scratch) vs the float64 engine. Identical model, graph pools, MaxBatch=1 servers, and " +
			"warm representation caches — per predict the forward pass is the variable. Timing " +
			"alternates f64/f32 chunks and keeps each side's fastest chunk, rejecting the shared " +
			"box's frequency and GC phase as common-mode noise. Divergence " +
			"is measured over every warmup answer pair and asserted inside the ULP envelope on " +
			"every run. Regenerate with `make bench-precision`.",
		"machine": map[string]any{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpu":        precCPUModel(),
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
		},
		"model": map[string]any{
			"kind": "GT", "dim": cfg.Dim, "layers": cfg.Layers, "heads": cfg.Heads,
		},
		"envelope": map[string]any{
			"max_ulp":     benchPrecMaxULP,
			"max_rel_err": benchPrecMaxRelErr,
			"rel_floor":   benchPrecRelFloor,
		},
		"results": rows,
		"arena": map[string]any{
			"f32_borrows":      snap.Arena.F32.Borrows,
			"f32_bucket_hits":  snap.Arena.F32.BucketHits,
			"f32_peak_bytes":   snap.Arena.F32.PeakBytes,
			"f32_in_use_bytes": snap.Arena.F32.InUseBytes,
		},
		"summary": map[string]any{
			"best_speedup": precRound2(best),
			"note": "Both precisions run the same matmul loop nest and an SSE register tile; " +
				"the speedup is the 4-wide float32 lanes against 2-wide float64 ones, the " +
				"tape-free forward, halved memory traffic, and head-major attention streams " +
				"— not parallelism (MaxBatch=1 servers, one forward at a time). Records taken " +
				"before the float64 matmul had a tile read 3.6–4.0x against its scalar loops. " +
				"Degraded (fallback-engine) answers always run float64 and are not measured here.",
		},
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

func precCPUModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

func precRound2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
