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
	"time"

	"mega/internal/band"
	"mega/internal/datasets"
	"mega/internal/dynamic"
	"mega/internal/graph"
	"mega/internal/models"
	"mega/internal/serve"
	"mega/internal/tensor"
	"mega/internal/train"
	"mega/internal/traverse"
)

// The traced run re-walks each workload's request pipeline from here, one
// span around each call into a layer's public function. Spans inside the
// program are a later change; until then this walk is the per-layer budget,
// and serve.unattributed_frac says how much of the real server's latency it
// fails to account for.

// span is one timed call: its name is the layer metric it feeds, Parent the
// index of the span that caused it (-1 for a request's root), Req the
// request the spans of one operation share.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so one walk serves warm-up and measurement.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNs = int64(time.Since(t.t0))
	}
}

// perRequest sums, per request, the spans called name, and returns the sums
// in nanoseconds (only for requests that ran such a span).
func (t *tracer) perRequest(name string) []float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Req] += float64(s.EndNs - s.StartNs)
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// total is the summed duration of every span called name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, v := range t.perRequest(name) {
		sum += v
	}
	return sum
}

// childTotal sums the spans whose parent is a root called rootName: what
// the walk attributes to layers, as opposed to its own glue.
func (t *tracer) childTotal(rootName string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == rootName {
			sum += float64(s.EndNs - s.StartNs)
		}
	}
	return sum
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanMetrics are the per-layer metrics that are the median, over the
// requests that ran it, of one span's time.
var spanMetrics = []struct {
	metric, span string
	unit         time.Duration
}{
	{"serve.decode_us", "serve.decode", time.Microsecond},
	{"serve.encode_us", "serve.encode", time.Microsecond},
	{"graph.build_us", "graph.build", time.Microsecond},
	{"graph.fingerprint_us", "graph.fingerprint", time.Microsecond},
	{"serve.cache_get_us", "serve.cache_get", time.Microsecond},
	{"serve.cache_put_us", "serve.cache_put", time.Microsecond},
	{"traverse.run_us", "traverse.run", time.Microsecond},
	{"band.build_us", "band.build", time.Microsecond},
	{"models.plan_us", "models.plan", time.Microsecond},
	{"models.context_us", "models.context", time.Microsecond},
	{"models.forward_f32_ms", "models.forward_f32", time.Millisecond},
	{"models.forward_f64_ms", "models.forward_f64", time.Millisecond},
	{"models.backward_f64_ms", "models.backward_f64", time.Millisecond},
	{"nn.loss_ms", "nn.loss", time.Millisecond},
	{"nn.adam_step_ms", "nn.adam_step", time.Millisecond},
	{"train.step_ms_p50", "train.step", time.Millisecond},
	{"train.eval_ms", "train.eval", time.Millisecond},
	{"dynamic.repair_ms_p50", "dynamic.repair", time.Millisecond},
}

func (r *run) setSpanMetrics(tr *tracer) {
	for _, m := range spanMetrics {
		if d := tr.perRequest(m.span); len(d) > 0 {
			r.set(m.metric, median(d)/float64(m.unit))
		}
	}
}

// budget prints each layer's share of the walked requests' time.
func (r *run) budget(tr *tracer, root string) {
	whole, n := tr.total(root), len(tr.perRequest(root))
	if n == 0 {
		return
	}
	share := map[string]float64{}
	for _, s := range tr.spans {
		if s.Parent >= 0 && tr.spans[s.Parent].Name == root {
			share[s.Name] += float64(s.EndNs-s.StartNs) / whole
		}
	}
	var names []string
	glue := 1.0
	for name, v := range share {
		names = append(names, name)
		glue -= v
	}
	sort.Slice(names, func(i, j int) bool { return share[names[i]] > share[names[j]] })
	r.printf("budget of %s (%d walked, mean %.3f ms):", root, n, whole/float64(n)/1e6)
	for _, name := range names {
		r.printf("  %-22s %6.2f %%", name, 100*share[name])
	}
	r.printf("  %-22s %6.2f %%", "(walk's own glue)", 100*glue)
}

// walker re-runs the serve pipeline through the layers' public functions,
// with its own cache, model and arena.
type walker struct {
	tr     *tracer
	cache  *serve.RepCache
	topts  traverse.Options
	digest traverse.OptionsDigest
	model  models.ModelF32
	arena  *tensor.Arena

	// Sums behind the ratio metrics, over traced cache misses and predicts.
	travNs, travEdges, pathRows, pathNodes, windowSum, builds, pairs, predicts float64
}

func newWalker(ckpt string, cacheCap int) (*walker, error) {
	_, model, err := train.LoadCheckpointFile(ckpt)
	if err != nil {
		return nil, err
	}
	m32, err := models.PrepareF32(model)
	if err != nil {
		return nil, err
	}
	if cacheCap == 0 {
		cacheCap = 4096 // serve.Options' default
	}
	topts := models.MegaOptions{}.TraverseOptions()
	return &walker{
		cache: serve.NewRepCache(cacheCap), topts: topts, digest: topts.Digest(),
		model: m32, arena: tensor.NewArena(),
	}, nil
}

// predict walks one /predict body: decode, build, fingerprint, cache,
// (traverse, band, plan on a miss), context, forward, encode.
func (w *walker) predict(req int, body []byte) (serve.Prediction, error) {
	tr := w.tr
	root := tr.begin("request.predict", -1, req)
	defer tr.end(root)

	sp := tr.begin("serve.decode", root, req)
	var gr serve.GraphRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&gr)
	tr.end(sp)
	if err != nil {
		return serve.Prediction{}, err
	}
	sp = tr.begin("graph.build", root, req)
	inst, err := gr.Instance()
	tr.end(sp)
	if err != nil {
		return serve.Prediction{}, err
	}
	sp = tr.begin("graph.fingerprint", root, req)
	key := serve.RepKey{Topo: inst.G.Fingerprint(), Opts: w.digest}
	tr.end(sp)
	sp = tr.begin("serve.cache_get", root, req)
	prep, hit := w.cache.Get(key)
	tr.end(sp)
	if !hit {
		sp = tr.begin("traverse.run", root, req)
		t0 := time.Now()
		res, err := traverse.Run(inst.G, w.topts)
		trav := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return serve.Prediction{}, err
		}
		sp = tr.begin("band.build", root, req)
		rep, err := band.Build(res.Graph, res, 0)
		tr.end(sp)
		if err != nil {
			return serve.Prediction{}, err
		}
		prep = &models.PreparedRep{Rep: rep, Res: res}
		sp = tr.begin("serve.cache_put", root, req)
		w.cache.Put(key, prep)
		tr.end(sp)
		sp = tr.begin("models.plan", root, req)
		prep.Plan()
		tr.end(sp)
		if tr != nil {
			w.noteTraversal(trav, res, rep)
		}
	}
	sp = tr.begin("models.context", root, req)
	ctx, err := models.NewMegaContextFromReps([]datasets.Instance{inst}, []*models.PreparedRep{prep}, nil, servedConfig.Dim)
	tr.end(sp)
	if err != nil {
		return serve.Prediction{}, err
	}
	ctx.Scratch = w.arena
	sp = tr.begin("models.forward_f32", root, req)
	out32 := w.model.Forward(ctx, w.arena)
	out := out32.Upcast()
	w.arena.PutF32(out32)
	tr.end(sp)
	sp = tr.begin("serve.encode", root, req)
	pred := serve.Prediction{Output: append([]float64(nil), out.Data...), CacheHit: hit, Precision: serve.PrecisionF32}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(pred)
	tr.end(sp)
	if tr != nil {
		w.pairs += float64(ctx.NumPairs())
		w.predicts++
	}
	return pred, err
}

func (w *walker) noteTraversal(d time.Duration, res *traverse.Result, rep *band.Rep) {
	w.travNs += float64(d)
	w.travEdges += float64(res.Graph.NumEdges())
	w.pathRows += float64(len(res.Path))
	w.pathNodes += float64(res.Graph.NumNodes())
	w.windowSum += float64(rep.Window)
	w.builds++
}

// update walks one /update body against the benchmark's own maintainer of
// the lineage, returning the successor fingerprint and the repair.
func (w *walker) update(req int, m *dynamic.Maintainer, body []byte) (string, dynamic.Repair, time.Duration, error) {
	tr := w.tr
	root := tr.begin("request.update", -1, req)
	defer tr.end(root)

	sp := tr.begin("serve.decode", root, req)
	var ur serve.UpdateRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&ur)
	if err == nil {
		_, err = graph.ParseFingerprint(ur.Fingerprint)
	}
	tr.end(sp)
	if err != nil {
		return "", dynamic.Repair{}, 0, err
	}
	sp = tr.begin("dynamic.repair", root, req)
	t0 := time.Now()
	repairs, err := m.ApplyBatch(pairs(ur.Remove), pairs(ur.Add))
	took := time.Since(t0)
	tr.end(sp)
	if err != nil || len(repairs) != 1 {
		return "", dynamic.Repair{}, 0, fmt.Errorf("walked repair: %d repairs, err %v", len(repairs), err)
	}
	// serve hashes the successor twice: for the response and for the key.
	sp = tr.begin("graph.fingerprint", root, req)
	fp := m.Fingerprint().String()
	key := serve.RepKey{Topo: m.Fingerprint(), Opts: w.digest}
	tr.end(sp)
	sp = tr.begin("serve.cache_put", root, req)
	w.cache.Put(key, &models.PreparedRep{Rep: m.Rep(), Res: m.Result()})
	tr.end(sp)
	sp = tr.begin("serve.encode", root, req)
	resp := serve.UpdateResponse{
		Fingerprint: fp, NumNodes: m.NumNodes(), NumEdges: m.NumEdges(),
		PathLen: len(m.Result().Path), Expansion: float64(len(m.Result().Path)) / float64(m.NumNodes()),
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	tr.end(sp)
	return fp, repairs[0], took, err
}

func pairs(edges [][2]int32) [][2]graph.NodeID {
	out := make([][2]graph.NodeID, len(edges))
	for i, e := range edges {
		out[i] = [2]graph.NodeID{e[0], e[1]}
	}
	return out
}

const (
	traceLoadShare = 0.5 // of -seconds: the untraced load phase that feeds the counters
	replayOps      = 400 // ops walked serially, per workload
)

// traceServe produces the per-layer metrics of one serve workload: counters
// from an untraced load phase, then a serial replay of further ops of the
// same plan against the server at default options, an otherwise identical
// server with MaxBatch 1 (which flushes at once), and the walker.
func traceServe(cfg config, spec serveSpec) (*run, error) {
	ckpt, err := writeCheckpoint(cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer os.Remove(ckpt)
	nReplay := replayOps
	if cfg.quick {
		nReplay = 24
	}
	open := time.Duration(cfg.seconds * traceLoadShare * float64(time.Second))
	// The "closed" share of the plan supplies the replay's requests.
	env, err := setupServe(spec, ckpt, cfg.seed, open, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer env.close()
	r := &run{}

	// Load phase: what the batcher, cache, failure paths, allocator and
	// pacer did under the workload's real concurrency.
	var ms0, ms1 runtime.MemStats
	before := env.srv.MetricsSnapshot(false)
	runtime.ReadMemStats(&ms0)
	samples, lag := pacer{sleep: time.Sleep}.openLoop(env.open, env.do)
	runtime.ReadMemStats(&ms1)
	after := env.srv.MetricsSnapshot(false)
	r.Attempted = len(samples)
	withinSLO := 0
	for _, s := range samples {
		if s.status != http.StatusOK {
			r.Failed++
		} else if s.latency <= sloLimit {
			withinSLO++
		}
	}
	lookups := float64(after.Cache.Hits - before.Cache.Hits + after.Cache.Misses - before.Cache.Misses)
	if lookups > 0 {
		r.set("serve.cache_hit_frac", float64(after.Cache.Hits-before.Cache.Hits)/lookups)
	}
	r.set("serve.cache_evictions", float64(after.Cache.Evictions-before.Cache.Evictions))
	r.set("serve.batches", float64(after.Batches-before.Batches))
	r.set("serve.batch_size_mean", meanBatch(before, after))
	r.set("serve.shed", float64(after.Shed-before.Shed))
	r.set("serve.degraded", float64(after.Degraded-before.Degraded))
	r.set("serve.deadline_exceeded", float64(after.DeadlineExceeded-before.DeadlineExceeded))
	if b := after.Arena.F32.Borrows - before.Arena.F32.Borrows; b > 0 {
		r.set("tensor.arena_hit_frac", float64(after.Arena.F32.BucketHits-before.Arena.F32.BucketHits)/float64(b))
	}
	r.set("runtime.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(len(samples)))
	r.set("runtime.gc_pause_ms_total", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	r.set("bench.pacer_lag_max_ms", ms(lag))
	r.set("bench.slo_ok_frac", float64(withinSLO)/float64(len(samples)))
	r.set("bench.fail_frac", float64(r.Failed)/float64(len(samples)))
	reads := latenciesMs(samples, opPredict)
	r.set("serve.read_p50_ms", median(reads))
	if p95, err := percentile(reads, 0.95); err == nil {
		r.set("serve.read_p95_ms", p95)
	} else {
		r.printf("serve.read_p95_ms not measured (reads 0): %v", err)
	}

	// Serial replay.
	noBatch := spec.serveOptions()
	noBatch.MaxBatch = 1
	mb1, err := serve.NewFromCheckpointFile(ckpt, noBatch)
	if err != nil {
		return nil, err
	}
	defer mb1.Close()
	mb1h := mb1.Handler()
	w, err := newWalker(ckpt, spec.cacheCap)
	if err != nil {
		return nil, err
	}
	for _, body := range env.pool {
		post(mb1h, "/predict", body)
		if _, err := w.predict(0, body); err != nil {
			return nil, fmt.Errorf("warm walker: %w", err)
		}
	}
	replay := env.closed
	if spec.updateRate > 0 {
		replay = hitBodies(rand.New(rand.NewSource(cfg.seed^0x5eed)), env.pool, nReplay)
	}
	var maintainers []*dynamic.Maintainer
	for _, ln := range env.lineages {
		g, err := lineageGraph(ln.edgesAfter(ln.next))
		if err != nil {
			return nil, err
		}
		m, err := dynamic.NewMaintainerPolicy(g, w.topts, dynamic.Policy{})
		if err != nil {
			return nil, err
		}
		maintainers = append(maintainers, m)
	}

	w.tr = newTracer()
	var latDefault, latMB1, updOverheadUs, spliceMs, rebuildMs, prefixFrac []float64
	var sumMB1, repairNs, prepareNs float64
	updates := 0
	for i := 0; i < nReplay; i++ {
		if spec.updateRate > 0 && i%4 != 3 {
			// Three ops in four are updates — the layers only this workload
			// reaches — each through Server.Update on the real server, then
			// on the walker's own maintainer of the same lineage.
			li := updates % numLineages
			ln := env.lineages[li]
			req := ln.ops[ln.next].request(ln.fp)
			t0 := time.Now()
			resp, err := env.srv.Update(req)
			served := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("replayed update %d: %w", i, err)
			}
			fp, rep, took, err := w.update(i, maintainers[li], mustJSON(req))
			if err != nil {
				return nil, err
			}
			if fp != resp.Fingerprint {
				r.fail("replayed update %d: walker reached %s, server %s", i, fp, resp.Fingerprint)
			}
			ln.fp, ln.next = resp.Fingerprint, ln.next+1
			updOverheadUs = append(updOverheadUs, us(served-took))
			if rep.Kind == dynamic.RepairSplice {
				spliceMs = append(spliceMs, ms(took))
				prefixFrac = append(prefixFrac, float64(rep.PrefixRows)/float64(rep.PathRows))
			} else {
				rebuildMs = append(rebuildMs, ms(took))
			}
			if updates%8 == 0 {
				// What a from-scratch preprocess of the mutated graph costs.
				t0 := time.Now()
				if _, err := models.PrepareMega(maintainers[li].Graph(), models.MegaOptions{}); err != nil {
					return nil, err
				}
				prepareNs += float64(time.Since(t0))
				repairNs += float64(took)
			}
			updates++
			continue
		}
		body := replay[i]
		// Rotate who goes first so none always runs on warm CPU caches.
		var want, got serve.Prediction
		for k := 0; k < 3; k++ {
			switch (i + k) % 3 {
			case 0:
				t0 := time.Now()
				status, resp := post(env.h, "/predict", body)
				latDefault = append(latDefault, ms(time.Since(t0)))
				if status != http.StatusOK {
					return nil, fmt.Errorf("replayed predict %d: status %d: %s", i, status, resp)
				}
			case 1:
				t0 := time.Now()
				status, resp := post(mb1h, "/predict", body)
				d := time.Since(t0)
				if status != http.StatusOK {
					return nil, fmt.Errorf("replayed predict %d (MaxBatch 1): status %d: %s", i, status, resp)
				}
				latMB1 = append(latMB1, ms(d))
				sumMB1 += float64(d)
				if err := json.Unmarshal(resp, &want); err != nil {
					return nil, err
				}
			case 2:
				if got, err = w.predict(i, body); err != nil {
					return nil, fmt.Errorf("walked predict %d: %w", i, err)
				}
			}
		}
		if !sameBits(got.Output, want.Output) || got.CacheHit != want.CacheHit {
			r.fail("walked predict %d: output %v hit %v, server %v hit %v", i, got.Output, got.CacheHit, want.Output, want.CacheHit)
		}
	}
	tr := w.tr
	r.setSpanMetrics(tr)
	r.set("serve.batch_wait_ms", median(latDefault)-median(latMB1))
	walked := tr.total("request.predict")
	r.set("serve.unattributed_frac", (sumMB1-walked)/sumMB1)
	r.set("bench.trace_overhead_frac", (walked-tr.childTotal("request.predict"))/walked)
	if w.builds > 0 {
		r.set("traverse.ns_per_edge", w.travNs/w.travEdges)
		r.set("traverse.path_expansion", w.pathRows/w.pathNodes)
		r.set("band.window_mean", w.windowSum/w.builds)
	}
	r.set("models.pairs_per_op", w.pairs/w.predicts)
	if updates > 0 {
		r.set("serve.update_overhead_us", median(updOverheadUs))
		r.set("dynamic.splice_ms_p50", median(spliceMs))
		r.set("dynamic.rebuild_ms_p50", median(rebuildMs))
		r.set("dynamic.splice_share", float64(len(spliceMs))/float64(updates))
		r.set("dynamic.prefix_frac_mean", mean(prefixFrac))
		r.set("dynamic.repair_vs_prepare", repairNs/prepareNs)
	}
	probeTensorF32(r, cfg)

	r.printf("load phase: %d requests in %v, %d failed; replay: %d ops serially (1 client)", len(samples), open, r.Failed, nReplay)
	r.printf("1-client latency p50: %.3f ms at default options, %.3f ms with MaxBatch 1, %.3f ms walked",
		median(latDefault), median(latMB1), median(tr.perRequest("request.predict"))/1e6)
	r.budget(tr, "request.predict")
	r.budget(tr, "request.update")
	return r, tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"))
}

func lineageGraph(edges [][2]int32) (*graph.Graph, error) {
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{Src: e[0], Dst: e[1]}
	}
	return graph.New(baNodes, es, false)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// traceTrain walks the training set-up and step loop layer by layer, then
// runs train.Run on the same data to show the walk costs what the real loop
// does (train.mirror_gap_frac) and computes what it computes.
func traceTrain(cfg config) (*run, error) {
	epochs := max(3, int(math.Round(cfg.seconds*trainEpochsPerSecond*traceLoadShare)))
	trainN, valN := trainSize, valSize
	if cfg.quick {
		epochs, trainN, valN = 3, 2*trainBatch, trainBatch
	}
	env, err := setupTrain(cfg.seed, trainN, valN, epochs)
	if err != nil {
		return nil, err
	}
	r := &run{}
	tr := newTracer()

	// Set-up pipeline: what building the contexts spends per graph.
	topts := env.opts.Mega.TraverseOptions()
	var travNs, travEdges, pathRows, pathNodes, windowSum float64
	for lo := 0; lo < len(env.ds.Train); lo += trainBatch {
		insts := env.ds.Train[lo:min(lo+trainBatch, len(env.ds.Train))]
		preps := make([]*models.PreparedRep, len(insts))
		for i, inst := range insts {
			req := lo + i
			sp := tr.begin("traverse.run", -1, req)
			t0 := time.Now()
			res, err := traverse.Run(inst.G, topts)
			travNs += float64(time.Since(t0))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("band.build", -1, req)
			rep, err := band.Build(res.Graph, res, 0)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			preps[i] = &models.PreparedRep{Rep: rep, Res: res}
			travEdges += float64(res.Graph.NumEdges())
			pathRows += float64(len(res.Path))
			pathNodes += float64(res.Graph.NumNodes())
			windowSum += float64(rep.Window)
		}
		sp := tr.begin("models.context", -1, -1-lo)
		_, err := models.NewMegaContextFromReps(insts, preps, nil, env.opts.Dim)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	n := float64(len(env.ds.Train))
	r.set("traverse.ns_per_edge", travNs/travEdges)
	r.set("traverse.path_expansion", pathRows/pathNodes)
	r.set("band.window_mean", windowSum/n)
	r.set("train.context_build_ms", env.buildMs)
	pairSum := 0.0
	for _, ctx := range env.train {
		pairSum += float64(ctx.NumPairs())
	}
	r.set("models.pairs_per_op", pairSum/float64(len(env.train)))

	// The mirrored loop, traced.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var mirrorMs []float64
	var mirrorLoss []float64
	for ep := 0; ep < epochs; ep++ {
		t0 := time.Now()
		tl, _, ok := env.epoch(tr, ep)
		mirrorMs = append(mirrorMs, ms(time.Since(t0)))
		mirrorLoss = append(mirrorLoss, tl)
		r.Attempted += len(env.train)
		if !ok {
			r.Failed += len(env.train)
			r.fail("mirrored epoch %d: non-finite loss", ep+1)
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	steps := float64(epochs * len(env.train))
	r.set("runtime.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/steps)
	r.set("runtime.gc_pause_ms_total", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	if st := env.arena.Stats().F64; st.Borrows > 0 {
		r.set("tensor.arena_hit_frac", float64(st.BucketHits)/float64(st.Borrows))
	}
	r.set("bench.fail_frac", float64(r.Failed)/float64(r.Attempted))

	res, err := train.Run(env.ds, env.opts)
	if err != nil {
		return nil, fmt.Errorf("train.Run: %w", err)
	}
	var runMs []float64
	for i := range res.Stats {
		if i > 0 {
			runMs = append(runMs, ms(res.Stats[i].WallTime-res.Stats[i-1].WallTime))
		}
		if i < len(mirrorLoss) && res.Stats[i].TrainLoss != mirrorLoss[i] {
			r.fail("mirrored epoch %d: train loss %v, train.Run has %v", i+1, mirrorLoss[i], res.Stats[i].TrainLoss)
		}
	}
	if len(runMs) == 0 || len(mirrorMs) < 2 {
		return nil, fmt.Errorf("train trace completed %d real and %d mirrored epochs, want >= 2", len(res.Stats), len(mirrorMs))
	}
	runP50 := median(runMs)
	r.set("train.mirror_gap_frac", math.Abs(median(mirrorMs[1:])-runP50)/runP50)
	r.setSpanMetrics(tr)
	walked := tr.total("train.step")
	r.set("bench.trace_overhead_frac", (walked-tr.childTotal("train.step"))/walked)
	probeTensorF64(r, cfg)

	r.printf("epoch p50 from epoch 2: %.2f ms mirrored and traced, %.2f ms in train.Run (%d epochs each)", median(mirrorMs[1:]), runP50, epochs)
	r.budget(tr, "train.step")
	return r, tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"))
}

// probeShape is the 96-node class: the tensor probes run the kernels on the
// shapes one such graph gives them.
var probeShape = sizeClasses[1]

// probeContext builds one 96-class graph's attention context.
func probeContext(seed int64) (*models.Context, error) {
	var gr serve.GraphRequest
	if err := json.Unmarshal(predictBody(rand.New(rand.NewSource(seed)), probeShape), &gr); err != nil {
		return nil, err
	}
	inst, err := gr.Instance()
	if err != nil {
		return nil, err
	}
	return models.NewMegaContext([]datasets.Instance{inst}, models.MegaOptions{}, nil, servedConfig.Dim)
}

// timeChunks runs fn in chunks and returns the median chunk's seconds per
// call: a median of chunks shrugs off the odd preempted one.
func timeChunks(cfg config, fn func()) float64 {
	chunks, per := 9, 60
	if cfg.quick {
		chunks, per = 3, 5
	}
	fn() // warm the arena and caches
	var secs []float64
	for c := 0; c < chunks; c++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		secs = append(secs, time.Since(t0).Seconds()/float64(per))
	}
	return median(secs)
}

// attnBytesPerPair is computed from tensor sizes, not measured: per pair
// the fused kernel reads one row each of q, k, v and the edge modulation,
// and writes (amortised) the attention rows and per-edge means.
func attnBytesPerPair(ctx *models.Context, elem int) float64 {
	d, p := float64(servedConfig.Dim), float64(ctx.NumPairs())
	return (4*p*d + float64(ctx.NumRows)*d + float64(ctx.NumEdges)*d) * float64(elem) / p
}

func probeTensorF32(r *run, cfg config) {
	ctx, err := probeContext(cfg.seed)
	if err != nil {
		r.fail("tensor probe: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	d := servedConfig.Dim
	arena := tensor.NewArena()
	rnd := func(rows int) *tensor.F32 { return tensor.Downcast(tensor.Randn(rng, rows, d, 1)) }
	a, b := rnd(probeShape.nodes), rnd(d)
	sec := timeChunks(cfg, func() { arena.PutF32(tensor.MatMul32(a, b, arena)) })
	r.set("tensor.matmul32_gflops", 2*float64(probeShape.nodes*d*d)/sec/1e9)

	q, k, v, ew := rnd(ctx.NumRows), rnd(ctx.NumRows), rnd(ctx.NumRows), rnd(ctx.NumEdges)
	byRecv := tensor.BuildSegments(ctx.RecvIdx, ctx.NumRows)
	byEdge := tensor.BuildSegments(ctx.EdgeIdx, ctx.NumEdges)
	sec = timeChunks(cfg, func() {
		att, eo := tensor.FusedSegmentAttention32(q, k, v, ew, ctx.RecvIdx, ctx.SendIdx, ctx.EdgeIdx,
			byRecv, byEdge, servedConfig.Heads, tensor.LayoutHeadMajor, arena)
		arena.PutF32(att)
		arena.PutF32(eo)
	})
	r.set("tensor.attn32_ns_per_pair", sec*1e9/float64(ctx.NumPairs()))
	r.set("tensor.attn_bytes_per_pair", attnBytesPerPair(ctx, 4))
}

func probeTensorF64(r *run, cfg config) {
	ctx, err := probeContext(cfg.seed)
	if err != nil {
		r.fail("tensor probe: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	d := servedConfig.Dim
	arena := tensor.NewArena()
	a, b := tensor.Randn(rng, probeShape.nodes, d, 1), tensor.Randn(rng, d, d, 1)
	sec := timeChunks(cfg, func() { tensor.MatMul(a, b) })
	r.set("tensor.matmul64_gflops", 2*float64(probeShape.nodes*d*d)/sec/1e9)

	leaf := func(rows int) *tensor.Tensor { return tensor.Randn(rng, rows, d, 1).RequireGrad() }
	q, k, v, ew := leaf(ctx.NumRows), leaf(ctx.NumRows), leaf(ctx.NumRows), leaf(ctx.NumEdges)
	byRecv := tensor.BuildSegments(ctx.RecvIdx, ctx.NumRows)
	bySend := tensor.BuildSegments(ctx.SendIdx, ctx.NumRows)
	byEdge := tensor.BuildSegments(ctx.EdgeIdx, ctx.NumEdges)
	sec = timeChunks(cfg, func() {
		att, eo := tensor.FusedSegmentAttention(q, k, v, ew, ctx.RecvIdx, ctx.SendIdx, ctx.EdgeIdx,
			byRecv, bySend, byEdge, servedConfig.Heads, arena)
		tensor.Add(tensor.Sum(att), tensor.Sum(eo)).Backward()
	})
	r.set("tensor.attn64_fwdbwd_ns_per_pair", sec*1e9/float64(ctx.NumPairs()))
	r.set("tensor.attn_bytes_per_pair", attnBytesPerPair(ctx, 8))
}
