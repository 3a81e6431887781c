package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mega/internal/datasets"
	"mega/internal/load"
	"mega/internal/models"
	"mega/internal/nn"
	"mega/internal/serve"
	"mega/internal/tensor"
	"mega/internal/train"
)

// Rates are frozen constants, about 40–50 % of what this class of box (one
// usable core) saturates at, never derived from a measurement of the same
// run: a rate that follows the machine hides a regression in the machine's
// own speed.
const (
	predictRate = 60.0 // serve_hit_f32, serve_cold_f32: /predict per second
	// update_stream: /update at 30/s beside /predict at 20/s, about a
	// third busy like the two above. The issue's 40/s of reads made it 45 %
	// busy, where this box's ±5 % drift in speed from one minute to the
	// next moved the mean update latency by 15 %.
	updateRate     = 30.0
	streamReadRate = 20.0

	// The arrival timeline (and gen.go's class sequence) is one frozen
	// Poisson draw, like the rates: which requests land in a burst decides
	// the tail, and across ten timelines p95 spread 15 % of its median where
	// across ten seeds on one timeline it spread 6 %. Topologies, features,
	// pool members and mutations follow -seed.
	timelineSeed = 1

	openShare = 0.8 // of -seconds: open loop; the rest is the closed loop

	// Upper bounds on what a closed-loop second can consume, for sizing the
	// pre-generated request lists (several times this box's saturation).
	closedPredictCap = 500
	closedUpdateCap  = 300

	sloLimit        = 50 * time.Millisecond
	sampleEvery     = 16 // 1-in-16 f32 answers are checked against f64
	coldCacheCap    = 256
	setupRepeats    = 3
	setupRepeatsMax = 15
	setupBudget     = time.Second

	// The f32 divergence envelope of internal/models and internal/serve.
	envMaxULP   = 1 << 14
	envMaxRel   = 5e-3
	envRelFloor = 1e-2

	// Training: epochs per second of -seconds (an epoch is ~1.9 s here),
	// frozen like the rates.
	trainEpochsPerSecond = 0.4
	trainSize            = 128
	valSize              = 32
	trainBatch           = 16
	mirrorEpochs         = 2
)

// servedConfig is the model every serve workload loads: untrained weights,
// because load and forward cost depend on shapes, not on values.
var servedConfig = models.Config{
	Dim: 64, Layers: 4, Heads: 4, NodeTypes: nodeTypes, EdgeTypes: edgeTypes, OutDim: 1, Seed: 42,
}

// serveSpec is what distinguishes the three serve workloads.
type serveSpec struct {
	predictRate, updateRate float64
	cold                    bool // every predict is a never-seen topology
	cacheCap                int  // 0 = the server's default (4096)
}

var serveSpecs = map[string]serveSpec{
	"serve_hit_f32":  {predictRate: predictRate},
	"serve_cold_f32": {predictRate: predictRate, cold: true, cacheCap: coldCacheCap},
	"update_stream":  {predictRate: streamReadRate, updateRate: updateRate},
}

// serveEnv is one set-up serve workload: a loaded server and every request
// it will be sent.
type serveEnv struct {
	spec     serveSpec
	ckpt     string
	srv      *serve.Server
	h        http.Handler
	pool     [][]byte
	open     []arrival
	predicts [][]byte // open-loop predict bodies, by arrival idx
	closed   [][]byte // closed-loop predict bodies (hit, cold)
	lineages []*lineage
}

func (e *serveEnv) close() {
	if e.srv != nil {
		e.srv.Close()
	}
}

// serveOptions are the options every measured server runs with: f32, MEGA
// engine, everything else at its default.
func (s serveSpec) serveOptions() serve.Options {
	opts := serve.Options{Precision: serve.PrecisionF32, Engine: models.EngineMega}
	if s.cacheCap > 0 {
		opts = opts.WithCacheCapacity(s.cacheCap)
	}
	return opts
}

// writeCheckpoint saves the untrained served model once per process.
func writeCheckpoint(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("gt-%d.ckpt", os.Getpid()))
	meta := train.Checkpoint{Model: "GT", Config: servedConfig, Task: datasets.TaskRegression, Dataset: "benchmark"}
	if err := train.SaveCheckpointFile(path, meta, models.NewGT(servedConfig)); err != nil {
		return "", fmt.Errorf("write checkpoint: %w", err)
	}
	return path, nil
}

// schedule merges the workload's Poisson streams into one timeline.
func (s serveSpec) schedule(dur time.Duration) ([]arrival, error) {
	var out []arrival
	streams := []struct {
		rate float64
		kind opKind
	}{{s.predictRate, opPredict}, {s.updateRate, opUpdate}}
	for i, st := range streams {
		if st.rate == 0 {
			continue
		}
		arr, err := load.Schedule(timelineSeed+int64(i), []load.Phase{{Name: "open", Rate: st.rate, Duration: dur}})
		if err != nil {
			return nil, err
		}
		for idx, a := range arr {
			out = append(out, arrival{at: a.At, kind: st.kind, idx: idx})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out, nil
}

// setupServe does everything before the first timed request: generate the
// graphs and the arrival timeline, load the checkpoint (with its f32
// downcast), warm the pool, adopt the lineages.
func setupServe(spec serveSpec, ckpt string, seed int64, open, closed time.Duration) (*serveEnv, error) {
	e := &serveEnv{spec: spec, ckpt: ckpt}
	rng := rand.New(rand.NewSource(seed))
	var err error
	if e.open, err = spec.schedule(open); err != nil {
		return nil, err
	}
	nPredict, nUpdate := 0, 0
	for _, a := range e.open {
		if a.kind == opPredict {
			nPredict++
		} else {
			nUpdate++
		}
	}
	nClosed := int(math.Ceil(closed.Seconds() * closedPredictCap))
	if spec.cold {
		e.predicts = coldBodies(rng, nPredict)
		e.closed = coldBodies(rng, nClosed)
	} else {
		e.pool = poolBodies(rng)
		e.predicts = hitBodies(rng, e.pool, nPredict)
		if spec.updateRate == 0 {
			e.closed = hitBodies(rng, e.pool, nClosed)
		}
	}
	if spec.updateRate > 0 {
		perLineage := 1 + (nUpdate+numLineages-1)/numLineages +
			int(math.Ceil(closed.Seconds()*closedUpdateCap/numLineages))
		for i := 0; i < numLineages; i++ {
			ln, err := newLineage(rng, perLineage)
			if err != nil {
				return nil, err
			}
			e.lineages = append(e.lineages, ln)
		}
	}

	if e.srv, err = serve.NewFromCheckpointFile(ckpt, spec.serveOptions()); err != nil {
		return nil, fmt.Errorf("load checkpoint: %w", err)
	}
	e.h = e.srv.Handler()
	for i, body := range e.pool {
		if status, resp := post(e.h, "/predict", body); status != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("warm pool graph %d: status %d: %s", i, status, resp)
		}
	}
	for i, ln := range e.lineages {
		req := serve.UpdateRequest{
			Base: &serve.GraphRequest{NumNodes: baNodes, Edges: ln.base},
			Add:  [][2]int32{ln.ops[0].edge},
		}
		status, resp := post(e.h, "/update", mustJSON(req))
		if status != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("adopt lineage %d: status %d: %s", i, status, resp)
		}
		if err := ln.advance(resp); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// advance records a successful /update response: the lineage continues
// from the fingerprint the server returned.
func (ln *lineage) advance(resp []byte) error {
	var ur serve.UpdateResponse
	if err := json.Unmarshal(resp, &ur); err != nil {
		return fmt.Errorf("update response: %w", err)
	}
	ln.fp = ur.Fingerprint
	ln.next++
	return nil
}

// do sends one planned request. Updates go round-robin over the lineages;
// each waits for its lineage's previous update, whose response names the
// fingerprint to continue from.
func (e *serveEnv) do(kind opKind, idx int) (int, []byte) {
	if kind == opPredict {
		return post(e.h, "/predict", e.predicts[idx])
	}
	ln := e.lineages[idx%numLineages]
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.next >= len(ln.ops) {
		return 0, []byte("lineage plan exhausted")
	}
	status, resp := post(e.h, "/update", mustJSON(ln.ops[ln.next].request(ln.fp)))
	if status == http.StatusOK {
		if err := ln.advance(resp); err != nil {
			return 0, []byte(err.Error())
		}
	}
	return status, resp
}

func (e *serveEnv) doClosed(kind opKind, idx int) (int, []byte) {
	if kind == opPredict {
		return post(e.h, "/predict", e.closed[idx])
	}
	return e.do(kind, idx)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (the kernel's
// hiwater_rss, which /proc/self/status shows as VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run is what one workload run produced: the contract's result plus the
// human-readable lines and the reasons any check failed.
type run struct {
	result
	lines    []string
	failures []string
}

func (r *run) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// repeatSetup sets a workload up at least setupRepeats times — and, when a
// set-up is quick, until setupBudget is spent or setupRepeatsMax reached —
// tearing all but the last down, and returns the last with the median
// duration: one set-up is a single sample of something a later change may
// move work into, and a 10 ms one is mostly noise.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var durs []float64
	start := time.Now()
	for i := 0; i < setupRepeats || (i < setupRepeatsMax && time.Since(start) < setupBudget); i++ {
		if i > 0 {
			teardown(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(durs), nil
}

// runServe measures one serve workload with tracing off: an open-loop phase
// at the frozen rates, then a closed loop with one client per processor.
func runServe(cfg config, spec serveSpec) (*run, error) {
	open := time.Duration(cfg.seconds * openShare * float64(time.Second))
	closed := time.Duration(cfg.seconds*float64(time.Second)) - open
	ckpt, err := writeCheckpoint(cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer os.Remove(ckpt)
	env, setupS, err := repeatSetup(
		func() (*serveEnv, error) { return setupServe(spec, ckpt, cfg.seed, open, closed) },
		(*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	primary, name, rate, closedN := opPredict, "predict", spec.predictRate, len(env.closed)
	if spec.updateRate > 0 {
		primary, name, rate = opUpdate, "update", spec.updateRate
		closedN = int(math.Ceil(closed.Seconds() * closedUpdateCap))
	}
	clients := runtime.NumCPU()

	before := env.srv.MetricsSnapshot(false)
	cpu0 := cpuTime()
	openSamples, lag := pacer{sleep: time.Sleep}.openLoop(env.open, env.do)
	cpuOpen := cpuTime() - cpu0
	// The high-water mark is read here, after a number of requests the
	// timeline fixes: how many the closed loop adds depends on the box's
	// speed, and each new batch shape it forms parks more scratch buffers.
	rss := peakRSSMiB()
	closedSamples, elapsed := closedLoop(clients, closed, primary, closedN, env.doClosed)
	after := env.srv.MetricsSnapshot(false)

	r := &run{}
	all := append(append([]sample(nil), openSamples...), closedSamples...)
	r.Attempted = len(all)
	for _, s := range all {
		if s.status != http.StatusOK {
			if r.Failed++; r.Failed <= 3 {
				r.fail("request failed: status %d: %s", s.status, bytes.TrimSpace(s.resp))
			}
		}
	}
	closedOK := 0
	for _, s := range closedSamples {
		if s.status == http.StatusOK {
			closedOK++
		}
	}
	withinSLO := 0
	for _, s := range openSamples {
		if s.status == http.StatusOK && s.latency <= sloLimit {
			withinSLO++
		}
	}

	lat := latenciesMs(openSamples, primary)
	if len(lat) == 0 {
		return nil, fmt.Errorf("open loop sent no %s request", name)
	}
	p50, err := percentile(lat, 0.50)
	if err != nil {
		// Only a -quick window holds fewer than the 20 samples a median
		// with ten beyond it needs; the smoke run enforces nothing.
		if !cfg.quick {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		p50 = median(lat)
	}
	r.set("setup_s", setupS)
	r.set("op_p50_ms", p50)
	r.set("op_mean_ms", mean(lat))
	r.set("ops_per_s", float64(closedOK)/elapsed.Seconds())
	r.set("cpu_ms_per_op", ms(cpuOpen)/float64(len(openSamples)))
	r.set("peak_rss_mb", rss)

	r.printf("%s_p50_ms %.4f ms (op_p50_ms; %d open-loop samples at %.0f/s, from due time)", name, p50, len(lat), rate)
	r.printf("%s_mean_ms %.4f ms (op_mean_ms)", name, mean(lat))
	printTail(r, name, lat)
	if primary == opUpdate {
		reads := latenciesMs(openSamples, opPredict)
		r.printf("predict_p50_ms %.4f ms (%d reads at %.0f/s beside the writers)", median(reads), len(reads), spec.predictRate)
		printTail(r, "predict", reads)
	}
	r.printf("%s_sat_rps %.4f 1/s (ops_per_s; %d closed-loop clients, %d %ss in %.2f s)",
		name, float64(closedOK)/elapsed.Seconds(), clients, closedOK, name, elapsed.Seconds())
	r.printf("slo_ok_frac %.6f fraction (%d of %d open-loop requests within %v of due time)",
		float64(withinSLO)/float64(len(openSamples)), withinSLO, len(openSamples), sloLimit)
	r.printf("fail_frac %.6f fraction (%d of %d)", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	r.printf("cpu_ms_per_op %.4f ms (process CPU over the open loop / its %d requests)", ms(cpuOpen)/float64(len(openSamples)), len(openSamples))
	r.printf("bench.pacer_lag_max_ms %.4f ms", ms(lag))
	if lag > pacerLagLimit {
		r.printf("WARNING: pacer lag above %v: the generator, not the server, shaped this run", pacerLagLimit)
	}
	r.printf("serve counters over the run: batches %d, mean batch %.3f, cache hits %d misses %d evictions %d, shed %d degraded %d deadline_exceeded %d",
		after.Batches-before.Batches, meanBatch(before, after),
		after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses, after.Cache.Evictions-before.Cache.Evictions,
		after.Shed-before.Shed, after.Degraded-before.Degraded, after.DeadlineExceeded-before.DeadlineExceeded)

	checkAnswers(r, env, all)
	if spec.updateRate > 0 {
		checkFinalGraph(r, env)
	}
	return r, nil
}

const pacerLagLimit = 20 * time.Millisecond

// printTail reports p95 and p99 of sorted latencies, each only when ten
// samples lie beyond it. They are printed, not bounded: a run's window holds
// ~1250 predicts or ~620 updates, this box's speed drifts ±5 % from minute
// to minute, queueing multiplies that in the tail, and across ten-seed sets
// p95 spread 6–30 % of its median. op_mean_ms, which the tail also moves,
// is the bounded one.
func printTail(r *run, name string, sorted []float64) {
	for _, q := range []float64{0.95, 0.99} {
		if v, err := percentile(sorted, q); err == nil {
			r.printf("%s_p%.0f_ms %.4f ms (unbounded)", name, q*100, v)
		} else {
			r.printf("%s_p%.0f_ms not reported: %v", name, q*100, err)
		}
	}
}

func meanBatch(before, after serve.Snapshot) float64 {
	batches := after.Batches - before.Batches
	if batches == 0 {
		return 0
	}
	graphs := after.MeanBatchSize*float64(after.Batches) - before.MeanBatchSize*float64(before.Batches)
	return graphs / float64(batches)
}

// checkAnswers verifies, after the timed window, every predict's cache
// verdict and precision, and a deterministic 1-in-sampleEvery of the f32
// answers against a direct f64 forward of the same instance.
func checkAnswers(r *run, env *serveEnv, samples []sample) {
	_, model, err := train.LoadCheckpointFile(env.ckpt)
	if err != nil {
		r.fail("reference model: %v", err)
		return
	}
	wantHit := !env.spec.cold
	var div tensor.Divergence
	checked, wrong := 0, 0
	for i, s := range samples {
		if s.kind != opPredict || s.status != http.StatusOK {
			continue
		}
		var pred serve.Prediction
		if err := json.Unmarshal(s.resp, &pred); err != nil {
			r.fail("sample %d: bad prediction: %v", i, err)
			return
		}
		if pred.CacheHit != wantHit || pred.Degraded || pred.Precision != serve.PrecisionF32 {
			if wrong++; wrong <= 3 {
				r.fail("sample %d: cache_hit=%v degraded=%v precision=%q, want cache_hit=%v on the f32 path",
					i, pred.CacheHit, pred.Degraded, pred.Precision, wantHit)
			}
		}
		if i%sampleEvery != 0 {
			continue
		}
		body := env.predicts
		if i >= len(env.open) {
			body = env.closed
		}
		ref, err := forwardF64(model, body[s.idx])
		if err != nil {
			r.fail("sample %d: f64 reference: %v", i, err)
			return
		}
		got := make([]float32, len(pred.Output))
		for j, v := range pred.Output {
			got[j] = float32(v) // exact: the wire value is an upcast f32
		}
		div.Merge(tensor.MeasureDivergence(got, ref, envRelFloor))
		checked++
	}
	if err := div.Within(envMaxULP, envMaxRel); err != nil {
		r.fail("f32 answers outside the envelope: %v", err)
	}
	if checked == 0 {
		r.fail("no f32 answer was checked against f64")
	}
	r.printf("correctness: %d f32 answers checked against f64 (max %d ULP, max rel err %.2e); cache_hit=%v on all but %d predicts",
		checked, div.MaxULP, div.MaxRelErr, wantHit, wrong)
}

// forwardF64 runs the f64 model directly on one /predict body.
func forwardF64(model models.Model, body []byte) ([]float64, error) {
	var req serve.GraphRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	inst, err := req.Instance()
	if err != nil {
		return nil, err
	}
	ctx, err := models.NewMegaContext([]datasets.Instance{inst}, models.MegaOptions{}, nil, servedConfig.Dim)
	if err != nil {
		return nil, err
	}
	return model.Forward(ctx).Data, nil
}

// checkFinalGraph predicts lineage 0's final graph: the updates published
// it, so it must be a cache hit, and a fresh server that never saw an
// update must give the same bits.
func checkFinalGraph(r *run, env *serveEnv) {
	ln := env.lineages[0]
	body := mustJSON(serve.GraphRequest{NumNodes: baNodes, Edges: ln.edgesAfter(ln.next)})
	predict := func(h http.Handler) (serve.Prediction, error) {
		var pred serve.Prediction
		status, resp := post(h, "/predict", body)
		if status != http.StatusOK {
			return pred, fmt.Errorf("status %d: %s", status, resp)
		}
		return pred, json.Unmarshal(resp, &pred)
	}
	got, err := predict(env.h)
	if err != nil {
		r.fail("final graph on the updated server: %v", err)
		return
	}
	fresh, err := serve.NewFromCheckpointFile(env.ckpt, env.spec.serveOptions())
	if err != nil {
		r.fail("fresh server: %v", err)
		return
	}
	defer fresh.Close()
	want, err := predict(fresh.Handler())
	if err != nil {
		r.fail("final graph on a fresh server: %v", err)
		return
	}
	if !got.CacheHit {
		r.fail("final graph of lineage 0 after %d updates is not a cache hit", ln.next)
	}
	if len(got.Output) != len(want.Output) {
		r.fail("final graph: %d outputs vs %d", len(got.Output), len(want.Output))
		return
	}
	for i := range got.Output {
		if math.Float64bits(got.Output[i]) != math.Float64bits(want.Output[i]) {
			r.fail("final graph: output %d is %v after updates, %v on a fresh server", i, got.Output[i], want.Output[i])
		}
	}
	r.printf("correctness: lineage 0 after %d updates predicts as a cache hit, bit-equal to a fresh server", ln.next)
}

// trainEnv mirrors train.Run's prologue and step loop through the same
// public functions, so the benchmark can time set-up, and (traced) each
// layer of a step, from outside.
type trainEnv struct {
	ds      *datasets.Dataset
	opts    train.Options
	model   models.Model
	opt     *nn.Adam
	arena   *tensor.Arena
	train   []*models.Context
	val     []*models.Context
	buildMs float64 // context building alone
}

func trainOptions(epochs int) train.Options {
	return train.Options{
		Model: "GT", Engine: models.EngineMega, Dim: 64, Layers: 4, Heads: 4,
		BatchSize: trainBatch, Epochs: epochs, Seed: 42, Attention: "fused",
	}
}

func setupTrain(seed int64, trainN, valN, epochs int) (*trainEnv, error) {
	ds, err := datasets.Generate("ZINC", datasets.Config{TrainSize: trainN, ValSize: valN, TestSize: 1, Seed: seed})
	if err != nil {
		return nil, err
	}
	e := &trainEnv{ds: ds, opts: trainOptions(epochs), arena: tensor.NewArena()}
	cfg := models.Config{
		Dim: e.opts.Dim, Layers: e.opts.Layers, Heads: e.opts.Heads,
		NodeTypes: ds.NumNodeTypes, EdgeTypes: ds.NumEdgeTypes,
		OutDim: 1, Seed: e.opts.Seed, Attention: e.opts.Attention,
	}
	if e.model, err = train.NewModel(e.opts.Model, cfg); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if e.train, err = e.contexts(ds.Train); err != nil {
		return nil, err
	}
	if e.val, err = e.contexts(ds.Val); err != nil {
		return nil, err
	}
	e.buildMs = ms(time.Since(t0))
	e.opt = nn.NewAdam(e.model.Params(), 1e-3)
	return e, nil
}

func (e *trainEnv) contexts(insts []datasets.Instance) ([]*models.Context, error) {
	var out []*models.Context
	for lo := 0; lo < len(insts); lo += e.opts.BatchSize {
		hi := min(lo+e.opts.BatchSize, len(insts))
		ctx, err := models.NewMegaContext(insts[lo:hi], e.opts.Mega, nil, e.opts.Dim)
		if err != nil {
			return nil, err
		}
		ctx.Scratch = e.arena
		out = append(out, ctx)
	}
	return out, nil
}

// epoch runs one mirrored epoch; tr may be nil. It returns the mean train
// loss and the validation loss exactly as train.Run computes them.
func (e *trainEnv) epoch(tr *tracer, epoch int) (trainLoss, valLoss float64, finite bool) {
	for i, ctx := range e.train {
		req := epoch*len(e.train) + i
		root := tr.begin("train.step", -1, req)
		sp := tr.begin("nn.adam_step", root, req)
		e.opt.ZeroGrad()
		tr.end(sp)
		sp = tr.begin("models.forward_f64", root, req)
		out := e.model.Forward(ctx)
		tr.end(sp)
		sp = tr.begin("nn.loss", root, req)
		loss := tensor.MAELoss(out, ctx.Targets)
		ok := loss.IsFinite()
		tr.end(sp)
		if !ok {
			tr.end(root)
			return 0, 0, false
		}
		sp = tr.begin("models.backward_f64", root, req)
		loss.Backward()
		tr.end(sp)
		sp = tr.begin("nn.adam_step", root, req)
		e.opt.Step()
		tr.end(sp)
		trainLoss += loss.Item()
		tr.end(root)
	}
	trainLoss /= float64(len(e.train))
	sp := tr.begin("train.eval", -1, -1-epoch)
	valLoss, _ = train.Evaluate(e.ds.Task, e.model, e.val)
	tr.end(sp)
	return trainLoss, valLoss, true
}

// runTrain measures train.Run itself; the mirrored loop only proves, on the
// first epochs, that it is the same computation.
func runTrain(cfg config) (*run, error) {
	epochs := max(3, int(math.Round(cfg.seconds*trainEpochsPerSecond)))
	trainN, valN := trainSize, valSize
	if cfg.quick {
		epochs, trainN, valN = 3, 2*trainBatch, trainBatch
	}
	env, setupS, err := repeatSetup(
		func() (*trainEnv, error) { return setupTrain(cfg.seed, trainN, valN, epochs) },
		func(*trainEnv) {})
	if err != nil {
		return nil, err
	}

	cpu0 := cpuTime()
	res, err := train.Run(env.ds, env.opts)
	cpuRun := cpuTime() - cpu0
	rss := peakRSSMiB()
	if err != nil {
		return nil, fmt.Errorf("train.Run: %w", err)
	}

	r := &run{}
	steps := len(env.train)
	r.Attempted = epochs * steps
	if res.Diverged || len(res.Stats) != epochs {
		r.Failed = r.Attempted - len(res.Stats)*steps
		r.fail("training diverged after %d of %d epochs", len(res.Stats), epochs)
	}
	if len(res.Stats) < 2 {
		return nil, fmt.Errorf("train.Run completed %d epochs, want >= 2", len(res.Stats))
	}
	var epochMs []float64
	for i := 1; i < len(res.Stats); i++ {
		epochMs = append(epochMs, ms(res.Stats[i].WallTime-res.Stats[i-1].WallTime))
		if l := res.Stats[i].TrainLoss; math.IsNaN(l) || math.IsInf(l, 0) {
			r.fail("epoch %d train loss is %v", i+1, l)
		}
	}
	p50 := median(epochMs)
	slowest := 0.0
	for _, v := range epochMs {
		slowest = max(slowest, v)
	}
	first, last := res.Stats[0].TrainLoss, res.Stats[len(res.Stats)-1].TrainLoss
	if !(last < first) {
		r.fail("train loss did not fall: epoch 1 %.6f, epoch %d %.6f", first, len(res.Stats), last)
	}
	for ep := 0; ep < min(mirrorEpochs, len(res.Stats)); ep++ {
		tl, vl, ok := env.epoch(nil, ep)
		if !ok || tl != res.Stats[ep].TrainLoss || vl != res.Stats[ep].ValLoss {
			r.fail("mirrored epoch %d: train %v val %v, train.Run has %v and %v",
				ep+1, tl, vl, res.Stats[ep].TrainLoss, res.Stats[ep].ValLoss)
		}
	}

	r.set("setup_s", setupS)
	r.set("op_p50_ms", p50)
	r.set("op_mean_ms", mean(epochMs))
	r.set("ops_per_s", float64(len(env.ds.Train))/(p50/1000))
	r.set("cpu_ms_per_op", ms(cpuRun)/float64(len(res.Stats)))
	r.set("peak_rss_mb", rss)
	r.printf("train_graphs_per_s %.4f graphs/s (ops_per_s; %d graphs / median wall time of epochs 2..%d)",
		float64(len(env.ds.Train))/(p50/1000), len(env.ds.Train), len(res.Stats))
	r.printf("epoch_p50_ms %.4f ms (op_p50_ms), mean %.4f ms (op_mean_ms), slowest %.4f ms; %d epochs support a median and no percentile",
		p50, mean(epochMs), slowest, len(epochMs))
	r.printf("fail_frac %.6f fraction (%d of %d steps)", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	r.printf("cpu_ms_per_op %.4f ms (process CPU over train.Run / %d epochs)", ms(cpuRun)/float64(len(res.Stats)), len(res.Stats))
	r.printf("correctness: loss %.6f -> %.6f, finite every epoch; mirrored step loop reproduces train.Run's first %d epochs exactly",
		first, last, min(mirrorEpochs, len(res.Stats)))
	return r, nil
}
