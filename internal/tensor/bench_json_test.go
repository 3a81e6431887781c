package tensor

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// benchSchemaVersion stamps the BENCH_*.json documents this package
// writes; bump it when the row or envelope shape changes.
const benchSchemaVersion = 1

// TestWriteBenchTensor regenerates BENCH_tensor.json: the serial-vs-
// parallel float64 kernel baselines plus the float32 fast-path kernels
// (tape-free matmul, fused segment attention head-major).
// Gated behind BENCH_TENSOR_OUT so `go test ./...` stays fast; run via
// `make bench-compute`. Iteration counts come from -benchtime, which the
// Makefile pins for comparable runs.
func TestWriteBenchTensor(t *testing.T) {
	out := os.Getenv("BENCH_TENSOR_OUT")
	if out == "" {
		t.Skip("set BENCH_TENSOR_OUT=<path> to write the tensor bench (make bench-compute)")
	}

	type row struct {
		Name    string  `json:"name"`
		NsPerOp int64   `json:"ns_per_op"`
		GFLOPS  float64 `json:"gflops,omitempty"`
	}
	var rows []row
	ns := map[string]int64{}
	run := func(name string, fn func(b *testing.B)) {
		res := testing.Benchmark(fn)
		r := row{Name: name, NsPerOp: res.NsPerOp()}
		if g, ok := res.Extra["GFLOP/s"]; ok {
			r.GFLOPS = benchRound2(g)
		}
		rows = append(rows, r)
		ns[name] = r.NsPerOp
		t.Logf("%-36s %12d ns/op", name, r.NsPerOp)
	}

	run("MatMulSerial128", func(b *testing.B) { benchMatMul(b, 1, 128) })
	run("MatMulSerial256", func(b *testing.B) { benchMatMul(b, 1, 256) })
	run("MatMulSerial512", func(b *testing.B) { benchMatMul(b, 1, 512) })
	run("MatMulParallel128", func(b *testing.B) { benchMatMul(b, runtime.NumCPU(), 128) })
	run("MatMulParallel256", func(b *testing.B) { benchMatMul(b, runtime.NumCPU(), 256) })
	run("MatMulParallel512", func(b *testing.B) { benchMatMul(b, runtime.NumCPU(), 512) })
	run("MatMulBackwardSerial512", func(b *testing.B) { benchMatMulBackward(b, 1, 512) })
	run("MatMulBackwardParallel512", func(b *testing.B) { benchMatMulBackward(b, runtime.NumCPU(), 512) })
	run("ElementwiseSerial", func(b *testing.B) { benchElementwise(b, 1) })
	run("ElementwiseParallel", func(b *testing.B) { benchElementwise(b, runtime.NumCPU()) })
	run("LayerNormSerial", func(b *testing.B) { benchLayerNorm(b, 1) })
	run("LayerNormParallel", func(b *testing.B) { benchLayerNorm(b, runtime.NumCPU()) })

	run("MatMul32Serial128", func(b *testing.B) { benchMatMul32(b, 1, 128, nil) })
	run("MatMul32Serial256", func(b *testing.B) { benchMatMul32(b, 1, 256, nil) })
	run("MatMul32Serial512", func(b *testing.B) { benchMatMul32(b, 1, 512, nil) })
	run("MatMul32Parallel128", func(b *testing.B) { benchMatMul32(b, runtime.NumCPU(), 128, nil) })
	run("MatMul32Parallel256", func(b *testing.B) { benchMatMul32(b, runtime.NumCPU(), 256, nil) })
	run("MatMul32Parallel512", func(b *testing.B) { benchMatMul32(b, runtime.NumCPU(), 512, nil) })

	run("FusedAttention64", func(b *testing.B) { BenchmarkFusedAttention64(b) })
	run("FusedAttention32HeadMajor", func(b *testing.B) { BenchmarkFusedAttention32(b) })

	ratio := func(num, den string) float64 {
		if ns[den] == 0 {
			return 0
		}
		return benchRound2(float64(ns[num]) / float64(ns[den]))
	}
	doc := map[string]any{
		"schema_version": benchSchemaVersion,
		"description": "Tensor kernel baselines: serial (1-thread pool) vs parallel (NumCPU pool) " +
			"float64 kernels, plus the float32 inference fast-path kernels — tape-free MatMul32 " +
			"and FusedSegmentAttention32 (head-major scratch, the only layout). ns_per_op from " +
			"testing.Benchmark at the Makefile's pinned -benchtime. Regenerate with " +
			"`make bench-compute`.",
		"machine": benchMachine(),
		"results": rows,
		"summary": map[string]any{
			"matmul512_f64_over_f32_serial":    ratio("MatMulSerial512", "MatMul32Serial512"),
			"attention_f64_over_f32_headmajor": ratio("FusedAttention64", "FusedAttention32HeadMajor"),
			"note": "Where machine.num_cpu is 1, or the box has one usable core, serial and " +
				"parallel run the same schedule and those pairs differ only by noise; the " +
				"f64-over-f32 ratios are the meaningful ones there. Both matmuls are one loop " +
				"nest with an SSE register tile, 4 float32 or 2 float64 lanes wide. The " +
				"equivalence suite proves bit-identical outputs at any thread count.",
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

// benchMachine is the shared machine-info envelope for bench documents
// written by this package.
func benchMachine() map[string]any {
	return map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        benchCPUModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
}

// benchCPUModel reads the CPU model string from /proc/cpuinfo (empty off
// Linux — the JSON still carries goos/goarch).
func benchCPUModel() string {
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

func benchRound2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
