package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mega/internal/datasets"
	"mega/internal/faults"
	"mega/internal/models"
	"mega/internal/train"
)

// Chaos harness (PR 4): the full train → checkpoint → serve pipeline under
// deterministic fault injection at every registered point, with concurrent
// clients, tight deadlines, a deliberately corrupted checkpoint, and a
// shutdown racing in-flight traffic. Invariants pinned:
//
//  1. No deadlock: the whole run completes under a hard watchdog.
//  2. No lost responses: every request resolves to a prediction or a
//     typed error drawn from the service's declared failure vocabulary,
//     and the metrics account for every one of them.
//  3. Bit-identical successes: every prediction equals the MEGA-engine
//     reference forward exactly. Faults may slow or fail requests, never
//     silently change an answer; a failed preprocess fails its request
//     and is counted in prepare_failures.
//
// `go test -run Chaos -short` is the CI variant (make chaos runs the full
// size). Set CHAOS_REPORT=<path> to write the fault-point coverage log.
func TestChaosEndToEnd(t *testing.T) {
	clients, perClient := 8, 150
	if testing.Short() {
		clients, perClient = 4, 40
	}

	// --- Phase 1: train with checkpointing under checkpoint-save faults.
	dir := t.TempDir()
	faults.ArmT(t, faults.Plan{Seed: 7, Points: []faults.PointConfig{
		{Name: faults.TrainCkptSave, Prob: 0.2, Action: faults.ActError},
	}})
	ds := datasets.ZINC(datasets.Config{TrainSize: 16, ValSize: 8, TestSize: 1, Seed: 11})
	res, err := train.Run(ds, train.Options{
		Model: "GT", Engine: models.EngineMega,
		Dim: 16, Layers: 1, Heads: 2, BatchSize: 8, Epochs: 3, Seed: 11,
		CheckpointDir: dir, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatalf("train under checkpoint faults: %v", err)
	}
	if res.LastCheckpoint == "" {
		t.Fatal("training never landed a checkpoint despite save retries")
	}
	faults.Disable()

	// --- Phase 2: corrupt the newest checkpoint; serving must quarantine
	// it and fall back to the previous good epoch.
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(paths) < 2 {
		t.Fatalf("want >=2 checkpoints to corrupt one, have %v (err %v)", paths, err)
	}
	sort.Strings(paths)
	newest := paths[len(paths)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewFromCheckpointDir(dir, Options{
		MaxBatch: 4, Workers: 2, QueueDepth: 8,
		MaxTimeout: 2 * time.Second, ShutdownGrace: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("serve from corrupted checkpoint dir: %v", err)
	}
	defer s.Close()
	if got := s.MetricsSnapshot(false).CheckpointRecoveries; got != 1 {
		t.Fatalf("checkpoint_recoveries = %d, want 1 (quarantined newest)", got)
	}

	// References come from the actually-served model (the fallback epoch),
	// one per instance, computed outside the service.
	insts := ds.Val
	refMega := make([][]float64, len(insts))
	for i, inst := range insts {
		refMega[i] = directForward(t, s.model, models.EngineMega, inst, s.meta.Config.Dim)
	}

	// --- Phase 3: concurrent clients against every serve fault point.
	// Plain Enable: phase 1's ArmT already owns the cleanup hook, and its
	// plan was explicitly disabled above, so re-arming here is safe.
	faults.Enable(faults.Plan{Seed: 1234, Points: []faults.PointConfig{
		{Name: faults.ServeCacheGet, Prob: 0.3, Action: faults.ActError},
		{Name: faults.ServeCachePut, Prob: 0.3, Action: faults.ActError},
		{Name: faults.ServePrepare, Prob: 0.25, Action: faults.ActError},
		{Name: faults.ServeDispatch, Prob: 0.02, Action: faults.ActPanic},
		{Name: faults.ServeForward, Prob: 0.15, Action: faults.ActDelay, Delay: 2 * time.Millisecond},
	}})

	var ok, prepareFailed, failed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				idx := (c*perClient + i) % len(insts)
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if i%9 == 0 {
					// A slice of traffic runs with a deadline tight enough
					// to trip under injected forward delay.
					ctx, cancel = context.WithTimeout(ctx, 3*time.Millisecond)
				}
				pred, err := s.PredictCtx(ctx, insts[idx])
				cancel()
				if err != nil {
					if !chaosErrorExpected(err) {
						t.Errorf("client %d req %d: unexpected error class: %v", c, i, err)
					}
					var fe *faults.Error
					if errors.As(err, &fe) && fe.Point == faults.ServePrepare {
						prepareFailed.Add(1)
					}
					failed.Add(1)
					continue
				}
				ok.Add(1)
				want := refMega[idx]
				for j := range want {
					if math.Float64bits(pred.Output[j]) != math.Float64bits(want[j]) {
						t.Errorf("client %d req %d: output[%d] = %x, want %x",
							c, i, j, pred.Output[j], want[j])
						break
					}
				}
			}
		}(c)
	}
	// Watchdog: the drain must finish — a hung request is a failed test,
	// not a hung CI job.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(2 * time.Minute):
		t.Fatal("chaos run deadlocked: clients still waiting after 2m")
	}

	// --- Phase 4: accounting. Every request resolved exactly once.
	total := uint64(clients * perClient)
	if got := ok.Load() + failed.Load(); got != total {
		t.Fatalf("lost responses: %d resolved of %d issued", got, total)
	}
	snap := s.MetricsSnapshot(false)
	if snap.Requests != total || snap.Errors != failed.Load() {
		t.Fatalf("metrics disagree with clients: requests %d/%d, errors %d/%d",
			snap.Requests, total, snap.Errors, failed.Load())
	}
	if ok.Load() == 0 || prepareFailed.Load() == 0 {
		t.Fatalf("chaos too one-sided: %d successes, %d injected prepare failures (want both)",
			ok.Load(), prepareFailed.Load())
	}
	// Each fired serve.prepare fault fails exactly one request, and that
	// request counts in prepare_failures: nothing answers in its place.
	if fired := uint64(faultReport(t, faults.ServePrepare).Fired); snap.PrepareFailures != fired || prepareFailed.Load() != fired {
		t.Fatalf("serve.prepare fired %d times; prepare_failures = %d, clients saw %d",
			fired, snap.PrepareFailures, prepareFailed.Load())
	}
	t.Logf("chaos: %d ok, %d failed (%d at prepare); restarts=%d shed=%d deadline=%d",
		ok.Load(), failed.Load(), prepareFailed.Load(),
		snap.WorkerRestarts, snap.Shed, snap.DeadlineExceeded)
	writeChaosReport(t)

	// --- Phase 5: faults off, service recovers to clean exact answers.
	faults.Disable()
	pred, err := s.Predict(insts[0])
	if err != nil {
		t.Fatalf("post-chaos predict: pred = %+v, err = %v", pred, err)
	}
	for j := range refMega[0] {
		if math.Float64bits(pred.Output[j]) != math.Float64bits(refMega[0][j]) {
			t.Fatalf("post-chaos output[%d] = %v, want %v", j, pred.Output[j], refMega[0][j])
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("post-chaos shutdown not clean: %v", err)
	}
}

// chaosErrorExpected recognises the service's declared failure vocabulary;
// anything outside it is a lost-response bug.
func chaosErrorExpected(err error) bool {
	return faults.IsInjected(err) ||
		errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrWorkerCrashed) ||
		errors.Is(err, ErrShuttingDown) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// writeChaosReport emits fault-point coverage: to CHAOS_REPORT when set
// (the CI artifact), always to the test log.
func writeChaosReport(t *testing.T) {
	t.Helper()
	for _, r := range faults.Report() {
		t.Logf("fault point %s: hits=%d fired=%d", r.Name, r.Hits, r.Fired)
	}
	path := os.Getenv("CHAOS_REPORT")
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("CHAOS_REPORT: %v", err)
	}
	defer f.Close()
	if err := faults.WriteReport(f); err != nil {
		t.Fatalf("write chaos report: %v", err)
	}
	fmt.Fprintln(f, "status=pass")
}
