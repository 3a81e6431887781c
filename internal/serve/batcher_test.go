package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"mega/internal/datasets"
	"mega/internal/faults"
)

// Natural-batching tests. Nothing here sleeps to let a batch form: the
// takeBatch tests run on one goroutine against a pre-filled channel, and the
// server tests hold the single worker at a gate (holdWorker) while the
// backlog is built behind it.

// TestTakeBatchLoneRequest pins the idle-server path: with nothing queued
// behind it, the request a worker received is its whole batch, returned
// without blocking — there is no wait for company to time out.
func TestTakeBatchLoneRequest(t *testing.T) {
	queue := make(chan *pending, 4)
	first := &pending{}
	batch := takeBatch(queue, first, 16)
	if len(batch) != 1 || batch[0] != first {
		t.Fatalf("batch = %v, want just the received request", batch)
	}
}

// TestTakeBatchFIFO runs the worker loop (receive one, take the rest) over a
// backlog of k requests: the first batch holds min(k, maxBatch) requests in
// arrival order and the remainder forms the following batches, none lost,
// none reordered.
func TestTakeBatchFIFO(t *testing.T) {
	for _, tc := range []struct {
		k, maxBatch int
		want        []int
	}{
		{k: 1, maxBatch: 4, want: []int{1}},
		{k: 3, maxBatch: 4, want: []int{3}},
		{k: 4, maxBatch: 4, want: []int{4}},
		{k: 5, maxBatch: 4, want: []int{4, 1}},
		{k: 9, maxBatch: 4, want: []int{4, 4, 1}},
		{k: 3, maxBatch: 1, want: []int{1, 1, 1}},
		{k: 20, maxBatch: 16, want: []int{16, 4}},
	} {
		t.Run(fmt.Sprintf("k%d_max%d", tc.k, tc.maxBatch), func(t *testing.T) {
			queue := make(chan *pending, tc.k)
			sent := make([]*pending, tc.k)
			for i := range sent {
				sent[i] = &pending{}
				queue <- sent[i]
			}
			close(queue) // Shutdown's signal: drain, then stop
			var sizes []int
			next := 0
			for p := range queue {
				batch := takeBatch(queue, p, tc.maxBatch)
				sizes = append(sizes, len(batch))
				for _, got := range batch {
					if got != sent[next] {
						t.Fatalf("batch %d: request out of arrival order at position %d", len(sizes)-1, next)
					}
					next++
				}
			}
			if fmt.Sprint(sizes) != fmt.Sprint(tc.want) {
				t.Fatalf("batch sizes = %v, want %v", sizes, tc.want)
			}
		})
	}
}

// holdWorker parks a one-worker server's worker inside runBatch: it arms a
// single delay on ServeDispatch, sends a plug request, and returns once the
// worker has taken the plug (as a batch of 1 — the queue was empty) and is
// sleeping at the gate. Requests admitted before the gate opens queue up
// behind it. The returned channel delivers the plug's result.
func holdWorker(t *testing.T, s *Server, plug datasets.Instance, gate time.Duration) <-chan error {
	t.Helper()
	enableFaults(t, faults.PointConfig{
		Name: faults.ServeDispatch, Prob: 1, Budget: 1, Action: faults.ActDelay, Delay: gate,
	})
	done := make(chan error, 1)
	go func() {
		_, err := s.Predict(plug)
		done <- err
	}()
	waitFor(t, "the worker to reach the dispatch gate", func() bool {
		return faultReport(t, faults.ServeDispatch).Fired == 1
	})
	return done
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// enqueueBehind admits one Predict per instance, in order, each from its own
// goroutine, waiting for every request to land in the admission queue before
// sending the next. results[i] delivers the answer for insts[i].
func enqueueBehind(t *testing.T, s *Server, insts []datasets.Instance) (results []chan outcome) {
	t.Helper()
	for i, inst := range insts {
		done := make(chan outcome, 1)
		results = append(results, done)
		go func(inst datasets.Instance) {
			pred, err := s.Predict(inst)
			done <- outcome{pred: pred, err: err}
		}(inst)
		waitFor(t, fmt.Sprintf("request %d to reach the queue (gate opened early?)", i),
			func() bool { return len(s.queue) == i+1 })
	}
	return results
}

// TestIdleServerRunsLoneRequestAsBatchOfOne: an idle server with a large
// MaxBatch answers a single request in a batch of its own.
func TestIdleServerRunsLoneRequestAsBatchOfOne(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 16, Workers: 1})
	if _, err := s.Predict(ds.Val[0]); err != nil {
		t.Fatal(err)
	}
	snap := s.MetricsSnapshot(false)
	if snap.Batches != 1 || snap.MaxBatchSize != 1 {
		t.Fatalf("batches = %d, max batch = %d, want 1 and 1", snap.Batches, snap.MaxBatchSize)
	}
}

// TestHeldWorkerTakesBacklogInMaxBatchChunks: six requests queue up behind a
// held worker with MaxBatch 4; when the gate opens they run as one batch of
// four and one of two — batches are as large as the worker was behind.
func TestHeldWorkerTakesBacklogInMaxBatchChunks(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 4, Workers: 1, QueueDepth: 16})
	plug := holdWorker(t, s, ds.Val[0], 300*time.Millisecond)
	results := enqueueBehind(t, s, ds.Val[1:7])
	if err := <-plug; err != nil {
		t.Fatalf("plug: %v", err)
	}
	for i, done := range results {
		if out := <-done; out.err != nil {
			t.Fatalf("queued request %d: %v", i, out.err)
		}
	}
	snap := s.MetricsSnapshot(false)
	if snap.Batches != 3 || snap.MaxBatchSize != 4 || math.Abs(snap.MeanBatchSize-7.0/3) > 1e-12 {
		t.Fatalf("batches = %d, max = %d, mean = %v; want 3 batches (1 + 4 + 2)",
			snap.Batches, snap.MaxBatchSize, snap.MeanBatchSize)
	}
}

// TestShutdownAnswersEveryQueuedRequestOnce builds a backlog behind a held
// worker and shuts down. With a generous grace every request is served;
// with a grace shorter than the gate every request resolves to a result or
// ErrShuttingDown. Either way every caller hears back.
func TestShutdownAnswersEveryQueuedRequestOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		grace     time.Duration
		wantAbort bool
	}{
		{"drain", 5 * time.Second, false},
		{"abort", 20 * time.Millisecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ds, _ := trainedServer(t, Options{MaxBatch: 2, Workers: 1, QueueDepth: 16, ShutdownGrace: tc.grace})
			plug := holdWorker(t, s, ds.Val[0], 300*time.Millisecond)
			results := enqueueBehind(t, s, ds.Val[1:8])
			err := s.Shutdown(context.Background())
			if tc.wantAbort != errors.Is(err, ErrShuttingDown) {
				t.Fatalf("Shutdown = %v, want abort = %v", err, tc.wantAbort)
			}
			var served, aborted int
			count := func(err error) {
				switch {
				case err == nil:
					served++
				case errors.Is(err, ErrShuttingDown):
					aborted++
				default:
					t.Errorf("request resolved to %v, want a result or ErrShuttingDown", err)
				}
			}
			count(<-plug)
			for _, done := range results {
				count((<-done).err)
			}
			if served+aborted != 8 || (aborted > 0) != tc.wantAbort {
				t.Fatalf("served = %d, aborted = %d of 8 (want abort = %v)", served, aborted, tc.wantAbort)
			}
		})
	}
}

// TestBatchCompositionIndependence is the bit-identity gate over natural
// batching: whatever batches a concurrent burst happens to fall into —
// which depends on worker count, MaxBatch and scheduling — every GT answer
// is Float64bits-equal to the answer of a MaxBatch 1 server of the same
// precision for the same instance.
func TestBatchCompositionIndependence(t *testing.T) {
	ref, ds, model := trainedServer(t, Options{MaxBatch: 1, Workers: 1})
	insts := ds.Val
	for _, precision := range []string{PrecisionF64, PrecisionF32} {
		single, err := New(model, ref.Meta(), Options{MaxBatch: 1, Workers: 1, Precision: precision})
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]float64, len(insts))
		for i, inst := range insts {
			pred, err := single.Predict(inst)
			if err != nil {
				t.Fatalf("%s reference %d: %v", precision, i, err)
			}
			want[i] = pred.Output
		}
		single.Close()
		for _, workers := range []int{1, 2} {
			for _, maxBatch := range []int{1, 4, 16} {
				t.Run(fmt.Sprintf("%s_w%d_b%d", precision, workers, maxBatch), func(t *testing.T) {
					s, err := New(model, ref.Meta(), Options{MaxBatch: maxBatch, Workers: workers, Precision: precision})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					// Three rounds: the first is all cache misses (staggered
					// arrivals), the rest all hits (a tight burst).
					for round := 0; round < 3; round++ {
						got := make([]outcome, len(insts))
						var wg sync.WaitGroup
						for i := range insts {
							wg.Add(1)
							go func(i int) {
								defer wg.Done()
								pred, err := s.Predict(insts[i])
								got[i] = outcome{pred: pred, err: err}
							}(i)
						}
						wg.Wait()
						for i, out := range got {
							if out.err != nil {
								t.Fatalf("round %d predict %d: %v", round, i, out.err)
							}
							for j := range want[i] {
								if math.Float64bits(out.pred.Output[j]) != math.Float64bits(want[i][j]) {
									t.Fatalf("round %d output[%d][%d] = %v, MaxBatch 1 server = %v",
										round, i, j, out.pred.Output[j], want[i][j])
								}
							}
						}
					}
					snap := s.MetricsSnapshot(false)
					t.Logf("%d batches, mean %.2f, max %d", snap.Batches, snap.MeanBatchSize, snap.MaxBatchSize)
					if snap.MaxBatchSize > uint64(maxBatch) {
						t.Fatalf("max batch size %d exceeds MaxBatch %d", snap.MaxBatchSize, maxBatch)
					}
				})
			}
		}
	}
}
