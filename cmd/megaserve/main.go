// Command megaserve serves a trained MEGA checkpoint over HTTP: graphs
// posted to /predict are packed, as many as are queued when a worker comes
// free, into block-diagonal forward passes, and their path representations
// are cached by canonical topology hash so repeated graphs skip the
// traversal entirely.
//
// Usage:
//
//	megatrain -dataset ZINC -model GT -checkpoint gt.ckpt
//	megaserve -checkpoint gt.ckpt -addr :8391
//	curl -s localhost:8391/predict -d '{"num_nodes":3,"edges":[[0,1],[1,2]],"node_feats":[0,1,2]}'
//	curl -s localhost:8391/metrics
//
// Flags:
//
//	megaserve -checkpoint model.ckpt [-addr :8391] [-engine mega|dgl]
//	          [-precision f64|f32]
//	          [-max-batch 16] [-workers 0]
//	          [-cache 4096] [-log-every 30s]
//	          [-checkpoint-dir dir] [-queue 256] [-deadline 0]
//	          [-max-deadline 0] [-grace 5s]
//	          [-sparsify f] [-sparsify-seed s]
//
// -checkpoint-dir serves the newest good checkpoint from a megatrain
// checkpoint directory (corrupt files are quarantined, not fatal) instead
// of a single -checkpoint file. The remaining flags tune the
// fault-tolerance layer: bounded admission queue (full → 429), per-request
// deadlines (server default plus a cap on the wire's timeout_ms override),
// and the shutdown drain grace. A request whose MEGA preprocessing fails
// gets a 500; an option the traversal rejects stops megaserve at start.
//
// -precision f32 serves MEGA batches through the float32 fast path: the
// checkpoint's parameters are downcast once at load and the forward pass
// runs tape-free float32 kernels in the head-major attention layout.
// Answers carry "precision":"f32" and stay within a measured ULP envelope
// of the float64 forward (the f32 serve workloads of benchmark/ check it).
// Only GT and GAT checkpoints on the mega engine qualify.
//
// -sparsify serves every MEGA representation from an effective-resistance
// sparsified copy of each posted graph: about that fraction of edges
// survives seeded importance sampling (-sparsify-seed), shrinking the
// attention band and the path. Cached reps are keyed by topology AND a
// digest of the traverse/sparsify options, so servers with different
// preprocessing never alias. Sparsified serving rejects POST /update (an
// update is defined on the full topology).
//
// POST /update maintains path representations for evolving graphs: a batch
// of edge inserts/deletes against a cached fingerprint is applied, the
// successor graph is preprocessed once, and its representation is published
// under the successor fingerprint, so the next /predict of the mutated
// graph is a cache hit. A lineage lives in the representation cache
// (-cache): an evicted fingerprint gets 404 and is revived by re-sending
// the graph as "base".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mega/internal/models"
	"mega/internal/serve"
	"mega/internal/traverse"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "megaserve:", err)
		os.Exit(1)
	}
}

// run starts the service. If ready is non-nil it receives the bound
// address once listening; if stop is non-nil, closing it shuts the server
// down gracefully. Both hooks exist for tests; main passes nil.
func run(args []string, stdout io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("megaserve", flag.ContinueOnError)
	ckpt := fs.String("checkpoint", "", "trained model checkpoint written by megatrain -checkpoint")
	ckptDir := fs.String("checkpoint-dir", "", "megatrain checkpoint directory; serves the newest good checkpoint (alternative to -checkpoint)")
	addr := fs.String("addr", ":8391", "HTTP listen address")
	engine := fs.String("engine", "mega", "attention engine: dgl or mega")
	precision := fs.String("precision", "f64", "inference arithmetic: f64 (training-grade) or f32 (fast path, GT/GAT only)")
	maxBatch := fs.Int("max-batch", 16, "max requests packed into one forward pass")
	workers := fs.Int("workers", 0, "forward-pass workers (0 = GOMAXPROCS)")
	cacheCap := fs.Int("cache", 4096, "path-representation cache capacity in graphs (0 disables)")
	logEvery := fs.Duration("log-every", 30*time.Second, "metrics log interval (0 disables)")
	queue := fs.Int("queue", 256, "admission queue depth; a full queue sheds requests with HTTP 429")
	deadline := fs.Duration("deadline", 0, "default per-request deadline (0 disables)")
	maxDeadline := fs.Duration("max-deadline", 0, "cap on any request deadline, including timeout_ms overrides (0 = uncapped)")
	grace := fs.Duration("grace", 5*time.Second, "shutdown drain grace before queued requests are failed")
	sparsify := fs.Float64("sparsify", 0, "effective-resistance keep fraction in (0,1] for MEGA preprocessing (0 = off)")
	sparsifySeed := fs.Int64("sparsify-seed", 1, "sparsifier seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*ckpt == "") == (*ckptDir == "") {
		return errors.New("exactly one of -checkpoint or -checkpoint-dir is required")
	}

	opts := serve.Options{
		MaxBatch:       *maxBatch,
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *deadline,
		MaxTimeout:     *maxDeadline,
		ShutdownGrace:  *grace,
		Precision:      *precision,
		Mega: models.MegaOptions{Traverse: traverse.Options{
			SparsifyFraction: *sparsify, SparsifySeed: *sparsifySeed,
		}},
	}.WithCacheCapacity(*cacheCap)
	switch *engine {
	case "dgl":
		opts.Engine = models.EngineDGL
	case "mega":
		opts.Engine = models.EngineMega
	default:
		return fmt.Errorf("unknown engine %q (want dgl or mega)", *engine)
	}

	var s *serve.Server
	var err error
	source := *ckpt
	if *ckptDir != "" {
		source = *ckptDir
		s, err = serve.NewFromCheckpointDir(*ckptDir, opts)
	} else {
		s, err = serve.NewFromCheckpointFile(*ckpt, opts)
	}
	if err != nil {
		return err
	}
	defer s.Close()

	meta := s.Meta()
	fmt.Fprintf(stdout, "serving %s (%s, dim %d, %d layers, task %s) from %s\n",
		meta.Model, meta.Dataset, meta.Config.Dim, meta.Config.Layers, meta.Task, source)
	if n := s.MetricsSnapshot(false).CheckpointRecoveries; n > 0 {
		fmt.Fprintf(stdout, "quarantined %d corrupt checkpoint(s) while loading\n", n)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "listening on %s (engine %s, precision %s, max-batch %d, cache %d)\n",
		ln.Addr(), *engine, *precision, *maxBatch, *cacheCap)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	srv := &http.Server{Handler: s.Handler()}

	logDone := make(chan struct{})
	if *logEvery > 0 {
		go logMetrics(stdout, s, *logEvery, logDone)
	}
	defer close(logDone)

	// SIGINT/SIGTERM (or the test stop hook) trigger a graceful drain:
	// stop accepting, let in-flight HTTP finish within the grace window,
	// then the deferred s.Close drains the batcher the same way.
	sigCtx, cancelSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSig()
	go func() {
		select {
		case <-stop: // nil channel when unused: blocks forever
		case <-sigCtx.Done():
		}
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// logMetrics periodically prints a one-line service summary.
func logMetrics(stdout io.Writer, s *serve.Server, every time.Duration, done <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			m := s.MetricsSnapshot(false)
			fmt.Fprintf(stdout,
				"reqs %d (%.1f/s, %d err) batches %d (mean %.1f, max %d) cache %d/%d hit %d miss %d evict %d | queue p50 %.2fms fwd p50 %.2fms total p99 %.2fms\n",
				m.Requests, m.ThroughputRPS, m.Errors,
				m.Batches, m.MeanBatchSize, m.MaxBatchSize,
				m.Cache.Size, m.Cache.Capacity, m.Cache.Hits, m.Cache.Misses, m.Cache.Evictions,
				m.QueueLatency.P50Ms, m.ForwardLatency.P50Ms, m.TotalLatency.P99Ms)
		}
	}
}
