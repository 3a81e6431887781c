// Command benchmark is the repo's one benchmark: four workloads that put
// different layers in the critical path, end-to-end metrics measured with
// tracing off, and a traced run that walks each workload's pipeline layer
// by layer from outside. README.md in this directory defines every name;
// BENCHMARK.json at the repo root fixes the regression bounds.
//
//	go run ./benchmark                         every workload, each in a fresh process
//	go run ./benchmark -workload serve_hit_f32 one workload, in this process
//	go run ./benchmark -trace                  the per-layer metrics and span files
//	go run ./benchmark -repeat 10              A/A: quartiles per metric against the bounds
//	go run ./benchmark -quick                  a 2-second smoke of each workload
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloads in the order they run. Each exists because it stresses layers
// the others leave idle; BENCHMARK.json records why.
var workloads = []string{"serve_hit_f32", "serve_cold_f32", "update_stream", "train_zinc_f64"}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a run with tracing off reports, on every
// workload (README.md says what "op" is on each).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_mean_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports. A layer that does no work
// on a workload reads 0 there.
var perLayer = []metricDef{
	{"serve.decode_us", "us"}, {"serve.encode_us", "us"},
	{"graph.build_us", "us"}, {"graph.fingerprint_us", "us"},
	{"serve.cache_get_us", "us"}, {"serve.cache_put_us", "us"},
	{"serve.cache_hit_frac", "fraction"}, {"serve.cache_evictions", "count"},
	{"traverse.run_us", "us"}, {"traverse.ns_per_edge", "ns/edge"}, {"traverse.path_expansion", "rows/node"},
	{"band.build_us", "us"}, {"band.window_mean", "rows"},
	{"models.plan_us", "us"}, {"models.context_us", "us"}, {"models.pairs_per_op", "pairs/op"},
	{"models.forward_f32_ms", "ms"}, {"models.forward_f64_ms", "ms"}, {"models.backward_f64_ms", "ms"},
	{"tensor.matmul32_gflops", "GFLOP/s"}, {"tensor.attn32_ns_per_pair", "ns/pair"},
	{"tensor.matmul64_gflops", "GFLOP/s"}, {"tensor.attn64_fwdbwd_ns_per_pair", "ns/pair"},
	{"tensor.arena_hit_frac", "fraction"}, {"tensor.attn_bytes_per_pair", "B/pair"},
	{"nn.loss_ms", "ms"}, {"nn.adam_step_ms", "ms"},
	{"train.step_ms_p50", "ms"}, {"train.eval_ms", "ms"}, {"train.context_build_ms", "ms"}, {"train.mirror_gap_frac", "fraction"},
	{"serve.batch_size_mean", "graphs"}, {"serve.batches", "count"},
	{"serve.batch_wait_ms", "ms"}, {"serve.unattributed_frac", "fraction"},
	{"serve.shed", "count"}, {"serve.degraded", "count"}, {"serve.deadline_exceeded", "count"},
	{"dynamic.repair_ms_p50", "ms"}, {"dynamic.splice_ms_p50", "ms"}, {"dynamic.rebuild_ms_p50", "ms"},
	{"dynamic.splice_share", "fraction"}, {"dynamic.prefix_frac_mean", "fraction"},
	{"dynamic.repair_vs_prepare", "ratio"}, {"serve.update_overhead_us", "us"},
	{"runtime.alloc_kb_per_op", "KiB/op"}, {"runtime.gc_pause_ms_total", "ms"}, {"bench.pacer_lag_max_ms", "ms"},
	// Beyond the issue's 48: the walk's own cost, the readers' latency in
	// the load phase, and the two fractions that cannot be bounded
	// end-to-end metrics because they read 0 and 1 on a healthy run.
	{"bench.trace_overhead_frac", "fraction"},
	{"serve.read_p50_ms", "ms"}, {"serve.read_p95_ms", "ms"},
	{"bench.slo_ok_frac", "fraction"}, {"bench.fail_frac", "fraction"},
}

// metricDefs is the table a run reports from: per-layer when traced.
func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the tables of main.go")
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

// measuredProcs is the GOMAXPROCS every workload is measured at.
const measuredProcs = 1

// runWorkload runs one workload in this process.
func runWorkload(cfg config) (*run, error) {
	// One P: this class of box shows two processors and has one usable
	// core, and two Ps on it flip, second by second, between sharing a core
	// under the OS scheduler and not. That flip tripled the run-to-run
	// spread of every latency; with one P the Go scheduler alone orders the
	// work. The closed loops still use one client per visible processor.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measuredProcs))
	var r *run
	var err error
	spec, isServe := serveSpecs[cfg.workload]
	switch {
	case isServe && cfg.trace:
		r, err = traceServe(cfg, spec)
	case isServe:
		r, err = runServe(cfg, spec)
	case cfg.workload == "train_zinc_f64" && cfg.trace:
		r, err = traceTrain(cfg)
	case cfg.workload == "train_zinc_f64":
		r, err = runTrain(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	for _, d := range metricDefs(cfg.trace) {
		if _, ok := r.Metrics[d.name]; !ok {
			if !cfg.trace {
				return nil, fmt.Errorf("%s did not report %s", cfg.workload, d.name)
			}
			r.set(d.name, 0) // the layer is not on this workload's path
		}
	}
	r.Correct = len(r.failures) == 0
	return r, nil
}

// envelope describes the machine: numbers mean nothing without it.
type envelope struct {
	CPUModel    string  `json:"cpu_model"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"` // while a workload is measured
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	SpinSpeedup float64 `json:"two_goroutine_spin_speedup"`
}

func machineEnvelope() envelope {
	e := envelope{
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: measuredProcs,
		GoVersion: runtime.Version(), Commit: "unknown", SpinSpeedup: spinSpeedup(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// spinSpeedup times a fixed spin on one goroutine and on two at once:
// 2.0 means two usable cores, 1.0 means the second visible core is not one.
func spinSpeedup() float64 {
	spin := func() {
		x := 1.0
		for i := 0; i < 60_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		spinSink = x
	}
	t0 := time.Now()
	spin()
	one := time.Since(t0)
	var wg sync.WaitGroup
	t0 = time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spin()
		}()
	}
	wg.Wait()
	return 2 * one.Seconds() / time.Since(t0).Seconds()
}

var spinSink float64 // keeps the spin from being optimised away

// normaliseArgs lets -trace stand alone (the documented human form) while
// the flag itself takes the 0|1 the driver passes.
func normaliseArgs(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(out) || (out[i+1] != "0" && out[i+1] != "1") {
			out[i] = "-trace=1"
		}
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload in this process (default: all four, each in a fresh child process)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics from a traced run and write the span files")
	repeat := fs.Int("repeat", 0, "A/A mode: N fresh runs per workload on seeds seed..seed+N-1, quartiles per metric, bounds enforced")
	quick := fs.Bool("quick", false, "2-second smoke per workload; bounds and sample-count rules not enforced")
	outDir := fs.String("out", "benchmark/out", "directory for span files and the temporary checkpoint")
	fs.Parse(normaliseArgs(os.Args[1:]))

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, outDir: *outDir}
	if err := mainErr(cfg, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config, repeat int) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.quick {
		cfg.seconds = 2
	}

	if cfg.workload != "" && repeat == 0 {
		r, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		env := machineEnvelope()
		fmt.Printf("workload %s seed %d seconds %g trace %v | %s, nproc %d, GOMAXPROCS %d, %s, commit %s, two-goroutine spin speed-up %.2fx\n",
			cfg.workload, cfg.seed, cfg.seconds, cfg.trace, env.CPUModel, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.SpinSpeedup)
		for _, l := range r.lines {
			fmt.Println(l)
		}
		printMetrics(r.result, cfg.trace)
		for _, f := range r.failures {
			fmt.Println("FAILED CHECK:", f)
		}
		line, err := json.Marshal(r.result)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !r.Correct {
			return errors.New("a correctness check failed")
		}
		return nil
	}

	names := workloads
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	if repeat > 0 {
		return aa(spec, cfg, names, repeat)
	}
	// Every workload in a fresh child, so peak RSS, heap state and the
	// process-global compute budget never leak from one into the next.
	all := map[string]result{}
	var failed []string
	for _, name := range names {
		c := cfg
		c.workload = name
		res, err := runChild(c, os.Stdout)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		all[name] = res
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

func printMetrics(r result, trace bool) {
	for _, d := range metricDefs(trace) {
		fmt.Printf("%-34s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// runChild re-executes this binary for one workload, copies what it prints
// to echo, and parses the result from its last line.
func runChild(cfg config, echo *os.File) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
	}
	args := []string{"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", traceArg, "-out", cfg.outDir}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // Output waits for the child to end
	if echo != nil {
		echo.Write(out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, runErr
		}
		return result{}, fmt.Errorf("parse result of %s: %w", cfg.workload, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%w (correct=%v, failed %d of %d)", runErr, res.Correct, res.Failed, res.Attempted)
	}
	return res, nil
}

// benchSpec is the part of BENCHMARK.json the program reads: how long a run
// measures, and each end-to-end metric's regression bound.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("%w (run from the repo root)", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// quartiles summarises one metric over an A/A set.
type quartiles struct {
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"iqr_over_median"`
	Values []float64 `json:"values"`
}

// quartilesOf uses the exclusive method (Python's statistics.quantiles
// default), which is how the acceptance check computes them.
func quartilesOf(values []float64) quartiles {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	q := quartiles{Q1: at(0.25), Median: at(0.5), Q3: at(0.75), Values: values}
	if q.Median != 0 {
		q.Spread = (q.Q3 - q.Q1) / q.Median
	}
	return q
}

// aa runs every workload n times in fresh processes on consecutive seeds —
// the spread therefore includes what a different seed changes, as the
// acceptance check's does — prints quartiles per metric, and fails if an
// end-to-end spread exceeds its bound (setup_s excepted: one set-up is too
// short for its spread to mean much, which is why it is a median of three
// per run and carries the widest bound).
func aa(spec benchSpec, cfg config, names []string, n int) error {
	type record struct {
		Envelope  envelope                        `json:"machine"`
		Seeds     []int64                         `json:"seeds"`
		Seconds   float64                         `json:"seconds"`
		Trace     bool                            `json:"trace"`
		Workloads map[string]map[string]quartiles `json:"workloads"`
	}
	rec := record{Envelope: machineEnvelope(), Seconds: cfg.seconds, Trace: cfg.trace, Workloads: map[string]map[string]quartiles{}}
	for i := 0; i < n; i++ {
		rec.Seeds = append(rec.Seeds, cfg.seed+int64(i))
	}
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	var over []string
	for _, name := range names {
		values := map[string][]float64{}
		for _, seed := range rec.Seeds {
			c := cfg
			c.workload, c.seed = name, seed
			res, err := runChild(c, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", name, seed)
		}
		rec.Workloads[name] = map[string]quartiles{}
		fmt.Printf("%s (%d runs)\n", name, n)
		for _, d := range metricDefs(cfg.trace) {
			q := quartilesOf(values[d.name])
			rec.Workloads[name][d.name] = q
			fmt.Printf("  %-34s q1 %12.6g  median %12.6g  q3 %12.6g  %s  spread %.4f", d.name, q.Q1, q.Median, q.Q3, d.unit, q.Spread)
			if b, ok := bound[d.name]; ok && !cfg.trace {
				fmt.Printf("  bound %.2f", b)
				if q.Spread > b && d.name != "setup_s" && !cfg.quick {
					over = append(over, fmt.Sprintf("%s on %s: spread %.4f > bound %.2f", d.name, name, q.Spread, b))
				}
			}
			fmt.Println()
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(over) > 0 {
		return errors.New(strings.Join(over, "; "))
	}
	return nil
}
