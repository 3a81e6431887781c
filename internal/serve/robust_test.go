package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mega/internal/datasets"
	"mega/internal/faults"
	"mega/internal/models"
)

// Robustness tests for the serving failure domains (PR 4): deadlines and
// cancellation, load shedding, degraded fallback behind the circuit
// breaker, worker crash replacement, bounded shutdown drain, and the
// metrics that account for each. Faults are process-global, so none of
// these tests run in parallel; each disables injection on exit.

func enableFaults(t *testing.T, points ...faults.PointConfig) {
	t.Helper()
	faults.ArmT(t, faults.Plan{Seed: 1, Points: points})
}

func TestPredictDeadlineExceeded(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1, Workers: 1, DefaultTimeout: 30 * time.Millisecond})
	enableFaults(t, faults.PointConfig{
		Name: faults.ServeForward, Prob: 1, Action: faults.ActDelay, Delay: 300 * time.Millisecond,
	})
	_, err := s.Predict(ds.Val[0])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := s.MetricsSnapshot(false).DeadlineExceeded; got != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", got)
	}
	faults.Disable()
	// The server must survive an abandoned request: once the delayed
	// forward drains, fresh requests succeed again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.Predict(ds.Val[0]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recovered after an abandoned request")
		}
	}
}

func TestPredictCancellation(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.PredictCtx(ctx, ds.Val[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if got := s.MetricsSnapshot(false).Canceled; got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
}

func TestOverloadSheds(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1, Workers: 1, QueueDepth: 1})
	enableFaults(t, faults.PointConfig{
		Name: faults.ServeForward, Prob: 1, Action: faults.ActDelay, Delay: 500 * time.Millisecond,
	})
	// Saturate the pipeline: worker (1 delayed batch) + queue
	// (QueueDepth=1). Once the queue channel is full it stays full until
	// the worker's 500ms delay elapses, so the next request
	// deterministically sheds.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Fillers retry their own sheds until served, so exactly two
			// requests occupy the pipeline's two slots.
			for {
				if _, err := s.Predict(ds.Val[0]); !errors.Is(err, ErrOverloaded) {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	waitFor(t, "the queue to fill to the shedding point", func() bool { return len(s.queue) == cap(s.queue) })
	if _, err := s.Predict(ds.Val[0]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded with a full queue", err)
	}
	if got := s.MetricsSnapshot(false).Shed; got == 0 {
		t.Fatal("shed counter not incremented")
	}
	wg.Wait()
}

func TestDegradedFallbackOnPrepareFailure(t *testing.T) {
	s, ds, model := trainedServer(t, Options{MaxBatch: 1})
	enableFaults(t, faults.PointConfig{
		Name: faults.ServePrepare, Prob: 1, Budget: 1, Action: faults.ActError,
	})
	inst := ds.Val[0]
	pred, err := s.Predict(inst)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if !pred.Degraded {
		t.Fatal("prepare failure should yield a degraded prediction")
	}
	// Degraded answers are exact for the fallback engine.
	want := directForward(t, model, models.EngineDGL, inst, s.Meta().Config.Dim)
	for i := range want {
		if math.Abs(pred.Output[i]-want[i]) > 1e-12 {
			t.Fatalf("degraded output[%d] = %v, DGL direct = %v", i, pred.Output[i], want[i])
		}
	}
	snap := s.MetricsSnapshot(false)
	if snap.Degraded != 1 || snap.PrepareFailures != 1 {
		t.Fatalf("degraded = %d, prepare_failures = %d, want 1, 1", snap.Degraded, snap.PrepareFailures)
	}
	// Budget exhausted: the next request preprocesses normally and, with a
	// sub-threshold failure count, the breaker stays closed.
	pred, err = s.Predict(inst)
	if err != nil || pred.Degraded {
		t.Fatalf("after budget: pred = %+v, err = %v", pred, err)
	}
	if st := s.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker = %s, want closed below threshold", st)
	}
}

func TestBreakerOpensAndShortCircuits(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{
		MaxBatch: 1, BreakerThreshold: 2, BreakerCooldown: time.Hour,
	}.WithCacheCapacity(0))
	enableFaults(t, faults.PointConfig{
		Name: faults.ServePrepare, Prob: 1, Action: faults.ActError,
	})
	for i := 0; i < 2; i++ {
		if pred, err := s.Predict(ds.Val[0]); err != nil || !pred.Degraded {
			t.Fatalf("request %d: pred = %+v, err = %v", i, pred, err)
		}
	}
	if st := s.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker = %s, want open at threshold", st)
	}
	hitsBefore := faultReport(t, faults.ServePrepare).Hits
	// Open breaker: requests skip preprocessing entirely.
	if pred, err := s.Predict(ds.Val[0]); err != nil || !pred.Degraded {
		t.Fatalf("open-breaker request: pred = %+v, err = %v", pred, err)
	}
	if got := faultReport(t, faults.ServePrepare).Hits; got != hitsBefore {
		t.Fatalf("open breaker still consulted prepare: hits %d -> %d", hitsBefore, got)
	}
	snap := s.MetricsSnapshot(false)
	if snap.BreakerOpens != 1 || snap.BreakerTransitions == 0 || snap.Breaker != string(BreakerOpen) {
		t.Fatalf("snapshot breaker fields = opens %d, transitions %d, state %q",
			snap.BreakerOpens, snap.BreakerTransitions, snap.Breaker)
	}
	// /healthz reflects the degradation.
	h := s.HealthSnapshot()
	if h.Status != "degraded" || h.Breaker != string(BreakerOpen) {
		t.Fatalf("health = %+v, want degraded/open", h)
	}
}

// faultReport reads the hit/fire counters of one armed injection point.
func faultReport(t *testing.T, name string) faults.PointReport {
	t.Helper()
	for _, r := range faults.Report() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no report entry for %s", name)
	return faults.PointReport{}
}

func TestFaultyCacheDegradesToMisses(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1})
	enableFaults(t,
		faults.PointConfig{Name: faults.ServeCacheGet, Prob: 1, Action: faults.ActError},
		faults.PointConfig{Name: faults.ServeCachePut, Prob: 1, Action: faults.ActError},
	)
	// A broken cache must cost only latency, never correctness.
	for i := 0; i < 2; i++ {
		pred, err := s.Predict(ds.Val[0])
		if err != nil || pred.CacheHit || pred.Degraded {
			t.Fatalf("request %d: pred = %+v, err = %v, want clean miss", i, pred, err)
		}
	}
	if st := s.CacheStats(); st.Hits != 0 || st.Size != 0 {
		t.Fatalf("cache stats = %+v, want untouched", st)
	}
}

// TestQueueStageExcludesPreprocessing pins the stage split on a cold
// request: the queue stage starts at the admission send, so a slow
// PrepareMega shows up under preprocess and not a second time under queue
// (the stage sum then stays within total).
func TestQueueStageExcludesPreprocessing(t *testing.T) {
	const delay = 100 * time.Millisecond
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1, Workers: 1})
	enableFaults(t, faults.PointConfig{
		Name: faults.ServePrepare, Prob: 1, Action: faults.ActDelay, Delay: delay,
	})
	if pred, err := s.Predict(ds.Val[0]); err != nil || pred.CacheHit {
		t.Fatalf("cold predict: pred = %+v, err = %v", pred, err)
	}
	snap := s.MetricsSnapshot(false)
	sum := func(h HistogramStats) float64 { return h.MeanMs * float64(h.Count) }
	if got := sum(snap.PreprocessLatency); got < ms(delay) {
		t.Fatalf("preprocess sum = %.2f ms, want >= the %v injected into prepare", got, delay)
	}
	if got := sum(snap.QueueLatency); snap.QueueLatency.Count != 1 || got >= ms(delay) {
		t.Fatalf("queue sum = %.2f ms over %d requests: the queue stage counted preprocessing",
			got, snap.QueueLatency.Count)
	}
	stages := sum(snap.QueueLatency) + sum(snap.PreprocessLatency) + sum(snap.ForwardLatency)
	if total := sum(snap.TotalLatency); stages > total {
		t.Fatalf("stage sum %.2f ms exceeds total %.2f ms", stages, total)
	}
}

func TestWorkerCrashIsIsolatedAndReplaced(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1, Workers: 1})
	enableFaults(t, faults.PointConfig{
		Name: faults.ServeDispatch, Prob: 1, Budget: 1, Action: faults.ActPanic,
	})
	_, err := s.Predict(ds.Val[0])
	if !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("err = %v, want ErrWorkerCrashed", err)
	}
	// The replacement worker serves the next request.
	if _, err := s.Predict(ds.Val[0]); err != nil {
		t.Fatalf("predict after crash: %v", err)
	}
	snap := s.MetricsSnapshot(false)
	if snap.WorkerRestarts != 1 {
		t.Fatalf("worker_restarts = %d, want 1", snap.WorkerRestarts)
	}
	if h := s.HealthSnapshot(); h.WorkerRestarts != 1 || h.Workers != 1 {
		t.Fatalf("health = %+v", h)
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1, Workers: 1, ShutdownGrace: 5 * time.Second})
	done := make(chan error, 1)
	go func() {
		_, err := s.Predict(ds.Val[0])
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("clean shutdown returned %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
}

func TestShutdownGraceAbortsQueued(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1, Workers: 1, QueueDepth: 4, ShutdownGrace: 30 * time.Millisecond})
	enableFaults(t, faults.PointConfig{
		Name: faults.ServeForward, Prob: 1, Budget: 1, Action: faults.ActDelay, Delay: 300 * time.Millisecond,
	})
	errs := make(chan error, 2)
	go func() { _, err := s.Predict(ds.Val[0]); errs <- err }()
	time.Sleep(50 * time.Millisecond) // first request is inside its delayed forward
	go func() { _, err := s.Predict(ds.Val[0]); errs <- err }()
	time.Sleep(20 * time.Millisecond) // second request is queued behind it
	if err := s.Shutdown(context.Background()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("shutdown = %v, want ErrShuttingDown after grace lapsed", err)
	}
	var aborted, served int
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case err == nil:
			served++
		case errors.Is(err, ErrShuttingDown):
			aborted++
		default:
			t.Fatalf("unexpected request error: %v", err)
		}
	}
	// The in-flight request finishes; the queued one is aborted with a
	// typed error. Nothing is silently dropped.
	if served != 1 || aborted != 1 {
		t.Fatalf("served = %d, aborted = %d, want 1 and 1", served, aborted)
	}
}

func TestHTTPTimeoutAndHealth(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1, Workers: 1})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	enableFaults(t, faults.PointConfig{
		Name: faults.ServeForward, Prob: 1, Budget: 1, Action: faults.ActDelay, Delay: 300 * time.Millisecond,
	})
	inst := ds.Val[0]
	req := GraphRequest{NumNodes: inst.G.NumNodes(), NodeFeats: inst.NodeFeat, EdgeFeats: inst.EdgeFeat, TimeoutMs: 30}
	for _, e := range inst.G.Edges() {
		req.Edges = append(req.Edges, [2]int32{e.Src, e.Dst})
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 on request timeout", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.QueueCapacity == 0 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	resp.Body.Close()
	if snap.DeadlineExceeded != 1 || snap.Breaker == "" {
		t.Fatalf("metrics snapshot = %+v", snap)
	}
}

// TestMetricsReconcileWithClients holds the server's accounting to its
// clients', request for request: concurrent clients send a predict+update
// mix (cache hits, cache misses, valid mutation batches, and batches that
// remove a missing edge) into a two-deep queue while four fault points
// fire, in process and over HTTP. The /metrics deltas of requests, errors,
// shed, deadline_exceeded, updates and update_errors must equal what the
// clients counted. Requests carry no deadline of their own: an answer that
// expires in the queue races its caller's deadline, and only the caller's
// side counts deadline_exceeded.
func TestMetricsReconcileWithClients(t *testing.T) {
	for _, tc := range []struct {
		name string
		wire bool
	}{{"in-process", false}, {"httptest", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s, ds, _ := trainedServer(t, Options{
				MaxBatch: 4, Workers: 2, QueueDepth: 2,
				BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond,
			})
			predict := func(inst datasets.Instance) error {
				_, err := s.Predict(inst)
				return err
			}
			update := func(req UpdateRequest) error {
				_, err := s.Update(req)
				return err
			}
			metrics := func() Snapshot { return s.MetricsSnapshot(false) }
			if tc.wire {
				hs := httptest.NewServer(s.Handler())
				t.Cleanup(hs.Close)
				// post maps a status back onto the error the in-process
				// call would have returned, as far as the counters care.
				post := func(path string, body any) error {
					buf, err := json.Marshal(body)
					if err != nil {
						return err
					}
					resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(buf))
					if err != nil {
						t.Errorf("POST %s: %v", path, err)
						return err
					}
					defer resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						return nil
					case http.StatusTooManyRequests:
						return ErrOverloaded
					case http.StatusGatewayTimeout:
						return context.DeadlineExceeded
					default:
						return fmt.Errorf("POST %s: HTTP %d", path, resp.StatusCode)
					}
				}
				predict = func(inst datasets.Instance) error {
					req := GraphRequest{NumNodes: inst.G.NumNodes(), NodeFeats: inst.NodeFeat, EdgeFeats: inst.EdgeFeat}
					for _, e := range inst.G.Edges() {
						req.Edges = append(req.Edges, [2]int32{e.Src, e.Dst})
					}
					return post("/predict", req)
				}
				update = func(req UpdateRequest) error { return post("/update", req) }
				metrics = func() Snapshot {
					resp, err := http.Get(hs.URL + "/metrics")
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					var snap Snapshot
					if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
						t.Fatal(err)
					}
					return snap
				}
			}

			// Self-contained mutation batches (a base plus one edge) need
			// no ordering between clients; every third one removes an edge
			// the base lacks and must fail validation.
			var updates []UpdateRequest
			badUpdates := 0
			for i, inst := range ds.Val {
				g := inst.G
				base := make([][2]int32, g.NumEdges())
				for j := range base {
					e := g.EdgeAt(j)
					base[j] = [2]int32{e.Src, e.Dst}
				}
				_, adds := pickMutations(t, g, 0, 1)
				req := UpdateRequest{Base: &GraphRequest{NumNodes: g.NumNodes(), Edges: base}, Add: adds}
				if i%3 == 2 {
					req.Add, req.Remove = nil, adds
					badUpdates++
				}
				updates = append(updates, req)
			}

			faults.ArmT(t, faults.Plan{Seed: 99, Points: []faults.PointConfig{
				{Name: faults.ServeCacheGet, Prob: 0.2, Action: faults.ActError},
				{Name: faults.ServeCachePut, Prob: 0.2, Action: faults.ActError},
				{Name: faults.ServePrepare, Prob: 0.1, Action: faults.ActError},
				{Name: faults.ServeForward, Prob: 0.1, Action: faults.ActDelay, Delay: 2 * time.Millisecond},
			}})
			before := metrics()

			// Every client sends the same sequence: val graphs repeat
			// (cache hits), train graphs are new (misses), and every
			// fourth request is one of the updates.
			const clients, perClient = 6, 48
			var mu sync.Mutex
			var predicts, predictOK, predictErrs, shed, deadline, upSent, upErrs uint64
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var p, ok, pe, sh, dl, us, ue uint64
					for i := 0; i < perClient; i++ {
						if i%4 == 3 {
							us++
							if update(updates[(c+i/4)%len(updates)]) != nil {
								ue++
							}
							continue
						}
						inst := ds.Val[(c+i)%len(ds.Val)]
						if i%3 == 0 {
							inst = ds.Train[(c*perClient+i)%len(ds.Train)]
						}
						p++
						switch err := predict(inst); {
						case err == nil:
							ok++
						case errors.Is(err, ErrOverloaded):
							pe++
							sh++
						case errors.Is(err, context.DeadlineExceeded):
							pe++
							dl++
						default:
							pe++
						}
					}
					mu.Lock()
					defer mu.Unlock()
					predicts, predictOK, predictErrs, shed, deadline, upSent, upErrs =
						predicts+p, predictOK+ok, predictErrs+pe, shed+sh, deadline+dl, upSent+us, upErrs+ue
				}()
			}
			wg.Wait()
			after := metrics()

			for _, c := range []struct {
				name           string
				client, server uint64
			}{
				{"requests", predicts, after.Requests - before.Requests},
				{"errors", predictErrs, after.Errors - before.Errors},
				{"shed", shed, after.Shed - before.Shed},
				{"deadline_exceeded", deadline, after.DeadlineExceeded - before.DeadlineExceeded},
				{"updates", upSent, after.Updates - before.Updates},
				{"update_errors", upErrs, after.UpdateErrors - before.UpdateErrors},
			} {
				if c.client != c.server {
					t.Errorf("%s: clients counted %d, /metrics delta %d", c.name, c.client, c.server)
				}
			}
			if predictOK == 0 {
				t.Error("no prediction succeeded")
			}
			if upErrs == 0 || upErrs == upSent {
				t.Errorf("%d of %d updates failed, want the bad ones only", upErrs, upSent)
			}
			fired := 0
			for _, r := range faults.Report() {
				fired += r.Fired
			}
			if fired == 0 {
				t.Fatal("fault profile armed but nothing fired")
			}
			t.Logf("%d predicts (%d ok, %d shed, %d failed otherwise), %d updates (%d failed), %d faults fired",
				predicts, predictOK, shed, predictErrs-shed, upSent, upErrs, fired)
		})
	}
}
