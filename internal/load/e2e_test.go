package load

import (
	"net/http/httptest"
	"testing"
	"time"

	"mega/internal/datasets"
	"mega/internal/faults"
	"mega/internal/models"
	"mega/internal/serve"
	"mega/internal/train"
)

// trainServer trains a tiny real checkpoint and serves it — the harness
// must hold its contracts against the genuine train → checkpoint → serve
// pipeline, not a hand-built model.
func trainServer(t *testing.T, opts serve.Options) *serve.Server {
	t.Helper()
	dir := t.TempDir()
	ds := datasets.ZINC(datasets.Config{TrainSize: 16, ValSize: 4, TestSize: 1, Seed: 5})
	if _, err := train.Run(ds, train.Options{
		Model: "GT", Engine: models.EngineMega,
		Dim: 16, Layers: 1, Heads: 2, BatchSize: 8, Epochs: 2, Seed: 5,
		CheckpointDir: dir, CheckpointEvery: 1,
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	s, err := serve.NewFromCheckpointDir(dir, opts)
	if err != nil {
		t.Fatalf("serve from checkpoint: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// assertNoLostResponses checks that every dispatched request resolved into
// exactly one outcome class — the zero-lost-responses contract.
func assertNoLostResponses(t *testing.T, rep Report) {
	t.Helper()
	tot := rep.Total
	resolved := tot.OK + tot.Shed + tot.DeadlineExceeded + tot.Canceled + tot.Errors +
		tot.UpdateOK + tot.UpdateErrors
	if resolved != tot.Sent {
		t.Fatalf("lost responses: %d resolved of %d sent (%+v)", resolved, tot.Sent, tot)
	}
	if !rep.Reconciliation.Clean {
		t.Fatalf("client counts do not reconcile with /metrics: %v", rep.Reconciliation.Mismatches)
	}
}

// TestEndToEndLoadWithFaults drives a real checkpointed server with a
// mixed predict/update stream while a survivable fault profile is armed
// (cache faults force recomputes, preprocessing faults trip the breaker
// into degraded fallbacks, forward delays stretch latencies): every
// request must resolve, and the client's accounting must match the
// server's /metrics counters exactly, fault-by-fault.
func TestEndToEndLoadWithFaults(t *testing.T) {
	// faults is a process-global registry: no t.Parallel anywhere in this
	// file.
	dur := 6 * time.Second
	if testing.Short() {
		dur = 2 * time.Second
	}
	s := trainServer(t, serve.Options{
		MaxBatch: 8, Workers: 2, QueueDepth: 64,
		BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond,
	})

	faults.ArmT(t, faults.Plan{Seed: 99, Points: []faults.PointConfig{
		{Name: faults.ServeCacheGet, Prob: 0.2, Action: faults.ActError},
		{Name: faults.ServeCachePut, Prob: 0.2, Action: faults.ActError},
		{Name: faults.ServePrepare, Prob: 0.1, Action: faults.ActError},
		{Name: faults.ServeForward, Prob: 0.1, Action: faults.ActDelay, Delay: 2 * time.Millisecond},
	}})

	rep, err := Run(InProcess{S: s}, RunOptions{
		Seed: 11,
		Phases: []Phase{
			{Name: "ramp", Rate: 30, Duration: dur / 2},
			{Name: "peak", Rate: 60, Duration: dur / 2},
		},
		Mix: MixOptions{Seed: 11, UpdateFraction: 0.08, NodeTypes: s.Meta().Config.NodeTypes,
			EdgeTypes: s.Meta().Config.EdgeTypes},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertNoLostResponses(t, rep)
	if rep.Total.OK == 0 {
		t.Fatal("no successful predictions under the survivable fault profile")
	}
	if rep.Total.Updates == 0 {
		t.Fatal("mix produced no /update traffic")
	}
	// The armed profile must have actually fired — otherwise this test is
	// reconciling fair weather.
	fired := 0
	for _, r := range faults.Report() {
		fired += r.Fired
	}
	if fired == 0 {
		t.Fatal("fault profile armed but nothing fired")
	}
	t.Logf("e2e: %d sent (%d ok, %d degraded, %d err, %d updates), %d faults fired, p99 %.2fms",
		rep.Total.Sent, rep.Total.OK, rep.Total.Degraded,
		rep.Total.Errors, rep.Total.Updates, fired, rep.Total.Latency.P99Ms)
}

// TestEndToEndLoadOverHTTP runs the same reconciliation contract across
// the wire: an httptest server around the real handler, the HTTPTarget
// mapping status codes back to typed errors, no client-side socket
// timeouts — counts must still match exactly.
func TestEndToEndLoadOverHTTP(t *testing.T) {
	dur := 4 * time.Second
	if testing.Short() {
		dur = 2 * time.Second
	}
	s := trainServer(t, serve.Options{
		MaxBatch: 8, Workers: 2, QueueDepth: 64,
	})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	rep, err := Run(HTTPTarget{Base: hs.URL}, RunOptions{
		Seed:   21,
		Phases: []Phase{{Name: "steady", Rate: 40, Duration: dur}},
		Mix: MixOptions{Seed: 21, UpdateFraction: 0.1, NodeTypes: s.Meta().Config.NodeTypes,
			EdgeTypes: s.Meta().Config.EdgeTypes},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertNoLostResponses(t, rep)
	if rep.Total.OK == 0 || rep.Total.UpdateOK == 0 {
		t.Fatalf("HTTP run too thin: %+v", rep.Total)
	}
	if rep.Total.CacheHits == 0 {
		t.Fatal("warm pool produced no cache hits over HTTP")
	}
}

// TestRunShedsAtOverload pins the open-loop property the harness exists
// for: offering far beyond a tiny server's capacity must surface shedding
// (not silently throttle the generator), and shed counts must reconcile
// exactly too.
func TestRunShedsAtOverload(t *testing.T) {
	s := trainServer(t, serve.Options{
		MaxBatch: 1, Workers: 1, QueueDepth: 2,
	})
	// Pin the server's capacity at 200/s whatever the machine: a worker
	// that never waits for company would otherwise keep up with the flood
	// on a fast box.
	faults.ArmT(t, faults.Plan{Seed: 31, Points: []faults.PointConfig{
		{Name: faults.ServeForward, Prob: 1, Action: faults.ActDelay, Delay: 5 * time.Millisecond},
	}})
	rep, err := Run(InProcess{S: s}, RunOptions{
		Seed:   31,
		Phases: []Phase{{Name: "flood", Rate: 600, Duration: 1500 * time.Millisecond}},
		Mix: MixOptions{Seed: 31, NodeTypes: s.Meta().Config.NodeTypes,
			EdgeTypes: s.Meta().Config.EdgeTypes},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertNoLostResponses(t, rep)
	if rep.Total.Shed == 0 {
		t.Fatalf("600 QPS against a queue of 2 shed nothing: %+v", rep.Total)
	}
}
