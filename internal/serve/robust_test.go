package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

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
