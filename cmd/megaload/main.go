// Command megaload is the open-loop load harness and capacity autotuner
// for the MEGA serving stack. It drives either an in-process server built
// from a checkpoint (or an ephemeral untrained model) or a remote
// megaserve over HTTP, with a deterministic Poisson arrival schedule
// through configurable rate ramps and workload mixes, then reports
// client-side latency percentiles and reconciles its own counts against
// the server's /metrics.
//
// Fixed-schedule run:
//
//	megaload -phases 100x5s,250x10s,100x5s -update-frac 0.05
//	megaload -addr localhost:8391 -rate 200 -duration 10s
//
// Capacity search (-autotune): per knob configuration, double the offered
// rate until the SLO fails, bisect to the knee, and write the sweep as a
// BENCH_serve.json regression record:
//
//	megaload -autotune -slo-p99 20ms -probe-duration 2s -out BENCH_serve.json
//
// Flags:
//
//	megaload [-checkpoint ckpt | -checkpoint-dir dir | (ephemeral model)]
//	         [-addr host:port] [-phases SPEC | -rate R -duration D]
//	         [-seed 1] [-hit-frac 0.7] [-update-frac 0] [-timeout 0]
//	         [-faults none|cache|prepare|delay|chaos|workerkill]
//	         [-kill-every 2s]
//	         [-max-batch 16] [-workers 0] [-shard-workers 0]
//	         [-cache 4096] [-queue 256] [-json]
//	         [-autotune] [-slo-p99 20ms] [-max-error-frac 0.005]
//	         [-probe-duration 2s] [-start-rate 25] [-tolerance 0.1]
//	         [-grid SPEC] [-out BENCH_serve.json]
//
// Without -checkpoint/-checkpoint-dir/-addr, megaload builds a small
// untrained GT model in process — load characteristics do not depend on
// trained weights, only on shapes, so the harness works out of the box.
// -faults and -autotune require the in-process server (-addr drives a
// server whose knobs this process cannot rebuild).
//
// -faults workerkill measures capacity under distributed failover: megaload
// re-execs itself as a fleet of three megashard worker processes (one
// replica group, auto-restarting), routes every batch through them via
// serve's distributed shard path, and SIGKILLs a rotating worker every
// -kill-every. Because replicas survive each kill, answers stay
// bit-identical through failover — the BENCH_serve.json capacity number
// from -autotune under this profile is the sustainable QPS while the fleet
// is being shot at.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"mega/internal/datasets"
	"mega/internal/dist"
	"mega/internal/faults"
	"mega/internal/load"
	"mega/internal/models"
	"mega/internal/serve"
	"mega/internal/train"
)

func main() {
	if os.Getenv("MEGALOAD_DIST_WORKER") == "1" {
		runDistWorker()
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "megaload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("megaload", flag.ContinueOnError)
	ckpt := fs.String("checkpoint", "", "trained checkpoint to serve in process")
	ckptDir := fs.String("checkpoint-dir", "", "megatrain checkpoint directory to serve in process")
	addr := fs.String("addr", "", "drive a running megaserve at this address instead of an in-process server")

	phasesSpec := fs.String("phases", "", "offered-rate ramp, e.g. 100x5s,250x10s,100x5s")
	rate := fs.Float64("rate", 100, "offered rate in requests/second (single-phase shorthand; ignored with -phases)")
	duration := fs.Duration("duration", 5*time.Second, "single-phase duration (ignored with -phases)")
	seed := fs.Int64("seed", 1, "seed for the arrival schedule and workload draws")
	hitFrac := fs.Float64("hit-frac", 0.7, "fraction of predicts aimed at the warm cache-hit pool")
	updateFrac := fs.Float64("update-frac", 0, "fraction of requests that are /update mutations")
	timeout := fs.Duration("timeout", 0, "per-request client deadline (0 = server policy only)")
	faultsProfile := fs.String("faults", "none", "fault profile to arm in process: none, cache, prepare, delay, chaos, workerkill")
	killEvery := fs.Duration("kill-every", 2*time.Second, "workerkill profile: SIGKILL cadence against the worker fleet")
	jsonOut := fs.Bool("json", false, "emit the run report as JSON instead of text")

	maxBatch := fs.Int("max-batch", 16, "in-process server: max requests per forward pass")
	workers := fs.Int("workers", 0, "in-process server: forward-pass workers (0 = GOMAXPROCS)")
	shardWorkers := fs.Int("shard-workers", 0, "in-process server: shard-parallel workers (must divide 8; 0 disables)")
	cacheCap := fs.Int("cache", 4096, "in-process server: path-representation cache capacity")
	queue := fs.Int("queue", 256, "in-process server: admission queue depth")

	autotune := fs.Bool("autotune", false, "search max sustainable QPS per knob config and write a bench record")
	sloP99 := fs.Duration("slo-p99", 20*time.Millisecond, "autotune: client-observed p99 SLO")
	maxErrFrac := fs.Float64("max-error-frac", 0.005, "autotune: max tolerated predict failure fraction")
	probeDur := fs.Duration("probe-duration", 2*time.Second, "autotune: measured window per rate probe")
	startRate := fs.Float64("start-rate", 25, "autotune: first offered rate probed")
	tolerance := fs.Float64("tolerance", 0.1, "autotune: relative capacity resolution")
	gridSpec := fs.String("grid", defaultGrid, "autotune: knob grid, comma-separated MAXBATCH/WORKERS/SHARD entries")
	out := fs.String("out", "BENCH_serve.json", "autotune: bench record output path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *addr != "" && (*ckpt != "" || *ckptDir != "") {
		return errors.New("-addr is exclusive with -checkpoint/-checkpoint-dir")
	}
	if *addr != "" && *autotune {
		return errors.New("-autotune needs the in-process server (it rebuilds knobs per config)")
	}
	if *addr != "" && *faultsProfile != "none" {
		return errors.New("-faults needs the in-process server")
	}

	phases := []load.Phase{{Name: "phase0", Rate: *rate, Duration: *duration}}
	if *phasesSpec != "" {
		var err error
		if phases, err = load.ParsePhases(*phasesSpec); err != nil {
			return err
		}
	}

	if err := armFaults(*faultsProfile, *seed); err != nil {
		return err
	}
	defer faults.Disable()

	opts := serve.Options{
		MaxBatch:     *maxBatch,
		Workers:      *workers,
		ShardWorkers: *shardWorkers,
		QueueDepth:   *queue,
		Engine:       models.EngineMega,
	}.WithCacheCapacity(*cacheCap)
	if *faultsProfile == "workerkill" {
		cleanup, err := setupWorkerKill(&opts, *ckpt, *ckptDir, *killEvery, stdout)
		if err != nil {
			return err
		}
		defer cleanup()
	}

	mix := load.MixOptions{
		Seed:           *seed,
		HitFraction:    *hitFrac,
		UpdateFraction: *updateFrac,
	}

	if *autotune {
		grid, err := parseGrid(*gridSpec)
		if err != nil {
			return err
		}
		return runAutotune(stdout, autotuneConfig{
			grid:     grid,
			slo:      load.SLO{P99Ms: float64(*sloP99) / float64(time.Millisecond), MaxErrorFraction: *maxErrFrac},
			search:   load.SearchOptions{StartRate: *startRate, Tolerance: *tolerance},
			probeDur: *probeDur,
			seed:     *seed,
			mix:      mix,
			baseOpts: opts,
			ckpt:     *ckpt,
			ckptDir:  *ckptDir,
			out:      *out,
			jsonOut:  *jsonOut,
		})
	}

	target, cleanup, vocab, err := buildTarget(*addr, *ckpt, *ckptDir, opts, *timeout)
	if err != nil {
		return err
	}
	defer cleanup()
	mix.NodeTypes, mix.EdgeTypes = vocab[0], vocab[1]

	rep, err := load.Run(target, load.RunOptions{
		Seed:    *seed,
		Phases:  phases,
		Mix:     mix,
		Timeout: *timeout,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	printReport(stdout, rep)
	if !rep.Reconciliation.Clean {
		return fmt.Errorf("reconciliation failed: %s", strings.Join(rep.Reconciliation.Mismatches, "; "))
	}
	return nil
}

// defaultGrid is sized for the capacity sweep to finish in about a minute
// on a small box: the batch cap bounds how much backlog one forward pass
// absorbs, and a second worker probes whether the forward pass or the
// admission queue is the bottleneck.
const defaultGrid = "4/1/0,16/1/0,16/2/0,32/2/0"

func parseGrid(spec string) ([]load.KnobConfig, error) {
	var grid []load.KnobConfig
	for _, seg := range strings.Split(spec, ",") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		parts := strings.Split(seg, "/")
		if len(parts) != 3 {
			return nil, fmt.Errorf("grid entry %q (want MAXBATCH/WORKERS/SHARD, e.g. 16/1/0; there is no wait field)", seg)
		}
		mb, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("grid entry %q: max-batch: %v", seg, err)
		}
		w, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("grid entry %q: workers: %v", seg, err)
		}
		sh, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("grid entry %q: shard-workers: %v", seg, err)
		}
		grid = append(grid, load.KnobConfig{
			Name:         fmt.Sprintf("batch%d-w%d-shard%d", mb, w, sh),
			MaxBatch:     mb,
			Workers:      w,
			ShardWorkers: sh,
		})
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("empty autotune grid %q", spec)
	}
	return grid, nil
}

// buildTarget wires up the system under load and returns it with its
// cleanup and the (nodeTypes, edgeTypes) vocabulary the workload must stay
// inside.
func buildTarget(addr, ckpt, ckptDir string, opts serve.Options, timeout time.Duration) (load.Target, func(), [2]int, error) {
	if addr != "" {
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		t := load.HTTPTarget{Base: base, TimeoutMs: int(timeout / time.Millisecond)}
		// A remote server's vocabulary is not on the wire; all-zero
		// features (vocab 1) are valid for any model.
		return t, func() {}, [2]int{1, 1}, nil
	}
	s, err := buildServer(ckpt, ckptDir, opts)
	if err != nil {
		return nil, nil, [2]int{}, err
	}
	meta := s.Meta()
	return load.InProcess{S: s}, func() { s.Close() }, [2]int{meta.Config.NodeTypes, meta.Config.EdgeTypes}, nil
}

func buildServer(ckpt, ckptDir string, opts serve.Options) (*serve.Server, error) {
	switch {
	case ckpt != "":
		return serve.NewFromCheckpointFile(ckpt, opts)
	case ckptDir != "":
		return serve.NewFromCheckpointDir(ckptDir, opts)
	default:
		// Ephemeral: load characteristics depend on shapes, not weights.
		model, err := train.NewModel("GT", ephemeralConfig)
		if err != nil {
			return nil, err
		}
		meta := train.Checkpoint{Model: "GT", Config: ephemeralConfig, Task: datasets.TaskRegression, Dataset: "synthetic"}
		return serve.New(model, meta, opts)
	}
}

// ephemeralConfig is the model served when no checkpoint is given. The
// workerkill fleet rebuilds the same model from the same seed, so server
// and workers agree bit-exactly without shipping parameters.
var ephemeralConfig = models.Config{Dim: 32, Layers: 2, Heads: 4, NodeTypes: 8, EdgeTypes: 4, OutDim: 1, Seed: 42}

// setupWorkerKill arms the workerkill profile: spawn one auto-restarting
// replica group of three re-exec'd worker processes, point opts.Dist at it
// with the vertex threshold floored so every batch takes the distributed
// path, and SIGKILL a rotating member every killEvery until cleanup.
func setupWorkerKill(opts *serve.Options, ckpt, ckptDir string, killEvery time.Duration, stdout io.Writer) (func(), error) {
	env := []string{"MEGALOAD_DIST_WORKER=1"}
	if ckpt != "" {
		env = append(env, "MEGALOAD_DIST_CKPT="+ckpt)
	}
	if ckptDir != "" {
		env = append(env, "MEGALOAD_DIST_CKPTDIR="+ckptDir)
	}
	sp, err := dist.Spawn(3, dist.SpawnOptions{
		Command:      []string{os.Args[0], "{addr}"},
		Env:          env,
		AutoRestart:  true,
		RestartDelay: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	opts.Dist = &dist.SuperOptions{
		Workers:          sp.Addrs(),
		GroupSize:        3,
		JobWorkers:       2,
		HeartbeatEvery:   100 * time.Millisecond,
		HeartbeatTimeout: 800 * time.Millisecond,
	}
	opts.ShardVertexThreshold = 1
	fmt.Fprintf(stdout, "workerkill: fleet %v, SIGKILL every %v\n", sp.Addrs(), killEvery)

	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(killEvery)
		defer tick.Stop()
		victim := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// A restart race (victim already down) is not an error —
				// the point is sustained fire, not precise aim.
				sp.Kill(victim % 3)
				victim++
			}
		}
	}()
	return func() {
		close(stop)
		sp.Close()
	}, nil
}

// runDistWorker is the hidden re-exec mode behind -faults workerkill: a
// megashard-equivalent worker process serving the same model as the parent
// (checkpoint via env, or the deterministic ephemeral config) on the
// address the spawner appended to argv.
func runDistWorker() {
	addr := os.Args[len(os.Args)-1]
	model, err := distWorkerModel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "megaload worker:", err)
		os.Exit(1)
	}
	w, err := dist.NewWorker(dist.WorkerOptions{Model: model, RecvTimeout: 5 * time.Second})
	if err != nil {
		fmt.Fprintln(os.Stderr, "megaload worker:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "megaload worker:", err)
		os.Exit(1)
	}
	fmt.Printf("%s%s\n", dist.ReadyPrefix, ln.Addr())
	if err := w.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "megaload worker:", err)
		os.Exit(1)
	}
}

func distWorkerModel() (models.Model, error) {
	if p := os.Getenv("MEGALOAD_DIST_CKPT"); p != "" {
		_, model, err := train.LoadCheckpointFile(p)
		return model, err
	}
	if d := os.Getenv("MEGALOAD_DIST_CKPTDIR"); d != "" {
		_, model, _, err := train.LoadLatestCheckpoint(d)
		return model, err
	}
	return train.NewModel("GT", ephemeralConfig)
}

// armFaults enables a named chaos profile (deterministic under the run
// seed). Profiles are intentionally survivable: error probabilities low
// enough that the breaker recovers, delays short enough that probes
// finish.
func armFaults(profile string, seed int64) error {
	var points []faults.PointConfig
	switch profile {
	case "none", "workerkill": // workerkill is structural, armed by setupWorkerKill
		return nil
	case "cache":
		points = []faults.PointConfig{
			{Name: faults.ServeCacheGet, Prob: 0.2},
			{Name: faults.ServeCachePut, Prob: 0.2},
		}
	case "prepare":
		points = []faults.PointConfig{{Name: faults.ServePrepare, Prob: 0.02}}
	case "delay":
		points = []faults.PointConfig{{Name: faults.ServeForward, Prob: 0.3, Action: faults.ActDelay, Delay: 2 * time.Millisecond}}
	case "chaos":
		points = []faults.PointConfig{
			{Name: faults.ServeCacheGet, Prob: 0.1},
			{Name: faults.ServeCachePut, Prob: 0.1},
			{Name: faults.ServePrepare, Prob: 0.01},
			{Name: faults.ServeForward, Prob: 0.1, Action: faults.ActDelay, Delay: time.Millisecond},
		}
	default:
		return fmt.Errorf("unknown fault profile %q (want none, cache, prepare, delay, chaos)", profile)
	}
	faults.Enable(faults.Plan{Seed: seed, Points: points})
	return nil
}

type autotuneConfig struct {
	grid     []load.KnobConfig
	slo      load.SLO
	search   load.SearchOptions
	probeDur time.Duration
	seed     int64
	mix      load.MixOptions
	baseOpts serve.Options
	ckpt     string
	ckptDir  string
	out      string
	jsonOut  bool
}

func runAutotune(stdout io.Writer, cfg autotuneConfig) error {
	fmt.Fprintf(stdout, "autotune: %d configs, SLO p99 <= %.2fms (err frac <= %.3g), %v probes\n",
		len(cfg.grid), cfg.slo.P99Ms, cfg.slo.MaxErrorFraction, cfg.probeDur)

	// resolvedMix is what the probes actually ran with (the workload's
	// feature vocabulary comes from the served model); the bench record
	// carries it instead of the pre-resolution flag values.
	resolvedMix := cfg.mix
	factory := func(kc load.KnobConfig) (load.ProbeFunc, func(), error) {
		opts := cfg.baseOpts
		opts.MaxBatch = kc.MaxBatch
		opts.Workers = kc.Workers
		opts.ShardWorkers = kc.ShardWorkers
		s, err := buildServer(cfg.ckpt, cfg.ckptDir, opts)
		if err != nil {
			return nil, nil, err
		}
		mix := cfg.mix
		mix.NodeTypes = s.Meta().Config.NodeTypes
		mix.EdgeTypes = s.Meta().Config.EdgeTypes
		resolvedMix = mix
		target := load.InProcess{S: s}
		probe := func(rate float64) (load.ProbeResult, error) {
			rep, err := load.Run(target, load.RunOptions{
				Seed:   cfg.seed,
				Phases: []load.Phase{{Name: "probe", Rate: rate, Duration: cfg.probeDur}},
				Mix:    mix,
			})
			if err != nil {
				return load.ProbeResult{}, err
			}
			if !rep.Reconciliation.Clean {
				return load.ProbeResult{}, fmt.Errorf("reconciliation failed at %.1f QPS: %s",
					rate, strings.Join(rep.Reconciliation.Mismatches, "; "))
			}
			return probeResult(rep), nil
		}
		return probe, func() { s.Close() }, nil
	}

	results, winner, err := load.Sweep(cfg.grid, factory, cfg.slo, cfg.search,
		func(line string) { fmt.Fprintln(stdout, "  "+line) })
	if err != nil {
		return err
	}

	rec := load.NewBenchRecord(time.Now().UTC().Format(time.RFC3339), cfg.slo, cfg.seed,
		cfg.probeDur.String(), resolvedMix, results, winner)
	if err := rec.Validate(); err != nil {
		return err
	}
	if err := rec.WriteFile(cfg.out); err != nil {
		return err
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	}
	if rec.Winner != "" {
		fmt.Fprintf(stdout, "winner: %s (%.1f QPS sustainable under p99 <= %.2fms)\n",
			rec.Winner, results[winner].Capacity.MaxQPS, cfg.slo.P99Ms)
	} else {
		fmt.Fprintln(stdout, "no config sustained the SLO at any probed rate")
	}
	fmt.Fprintf(stdout, "wrote %s\n", cfg.out)
	return nil
}

// probeResult condenses a single-phase run into the autotuner's pass/fail
// inputs.
func probeResult(rep load.Report) load.ProbeResult {
	t := rep.Total
	r := load.ProbeResult{AchievedQPS: t.AchievedQPS, P99Ms: t.Latency.P99Ms}
	if t.Predicts > 0 {
		r.ErrorFraction = float64(t.Shed+t.DeadlineExceeded+t.Canceled+t.Errors) / float64(t.Predicts)
	}
	return r
}

func printReport(stdout io.Writer, rep load.Report) {
	fmt.Fprintf(stdout, "%-10s %9s %9s %6s %6s %6s %5s %5s %5s %8s %8s %8s\n",
		"phase", "offered", "achieved", "ok", "hit", "degr", "shed", "ddl", "err", "p50ms", "p95ms", "p99ms")
	row := func(p load.PhaseReport) {
		fmt.Fprintf(stdout, "%-10s %9.1f %9.1f %6d %6d %6d %5d %5d %5d %8.2f %8.2f %8.2f\n",
			p.Name, p.OfferedQPS, p.AchievedQPS, p.OK, p.CacheHits, p.Degraded,
			p.Shed, p.DeadlineExceeded, p.Errors+p.Canceled+p.UpdateErrors,
			p.Latency.P50Ms, p.Latency.P95Ms, p.Latency.P99Ms)
	}
	for _, p := range rep.Phases {
		row(p)
	}
	row(rep.Total)
	if rep.Total.Updates > 0 {
		fmt.Fprintf(stdout, "updates: %d ok, %d failed\n", rep.Total.UpdateOK, rep.Total.UpdateErrors)
	}
	if rep.MaxPacerLagMs > 0.5 {
		fmt.Fprintf(stdout, "pacer fell behind by up to %.2fms (offered rate not fully achieved)\n", rep.MaxPacerLagMs)
	}
	if rep.Reconciliation.Clean {
		fmt.Fprintf(stdout, "reconciliation: clean (%d predicts, %d updates match /metrics exactly)\n",
			rep.Reconciliation.PredictsSent, rep.Reconciliation.UpdatesSent)
	} else {
		for _, m := range rep.Reconciliation.Mismatches {
			fmt.Fprintln(stdout, "reconciliation MISMATCH:", m)
		}
	}
}
