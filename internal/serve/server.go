package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mega/internal/compute"
	"mega/internal/datasets"
	"mega/internal/faults"
	"mega/internal/graph"
	"mega/internal/models"
	"mega/internal/tensor"
	"mega/internal/train"
	"mega/internal/traverse"
)

// Options tunes the inference service.
type Options struct {
	// Engine selects the attention engine (default EngineMega — the
	// engine whose preprocessing the cache amortises).
	Engine models.EngineKind
	// MaxBatch caps how many requests are packed into one block-diagonal
	// forward pass (default 16). A free worker takes what is already
	// queued, up to this many, and never waits for more.
	MaxBatch int
	// Workers sizes the forward-pass worker pool (default GOMAXPROCS).
	Workers int
	// CacheCapacity bounds the path-representation LRU in entries
	// (default 4096; <=0 after explicit set disables caching).
	CacheCapacity int
	// QueueDepth is the pending-request channel capacity; when it is
	// full, new requests are shed with ErrOverloaded instead of blocking
	// (default 256).
	QueueDepth int
	// DefaultTimeout is the per-request deadline applied when the
	// caller's context carries none (0 = no default deadline).
	DefaultTimeout time.Duration
	// MaxTimeout caps every request deadline, including per-request
	// overrides from the wire (0 = uncapped).
	MaxTimeout time.Duration
	// BreakerThreshold is the consecutive MEGA-preprocessing failures
	// that trip the circuit breaker to the fallback engine (default 5).
	BreakerThreshold int
	// BreakerCooldown is the first open window before a half-open probe;
	// successive trips back off exponentially from it (default 500ms).
	BreakerCooldown time.Duration
	// ShutdownGrace bounds how long Close/Shutdown drains queued and
	// in-flight requests before failing the rest with ErrShuttingDown
	// (default 5s).
	ShutdownGrace time.Duration
	// Mega configures traversal options for the MEGA engine (including
	// effective-resistance sparsification via SparsifyFraction). Options
	// are per-server, not per-request; cache keys cover both topology and
	// a digest of these options, so servers with different preprocessing
	// can never alias each other's reps.
	Mega models.MegaOptions
	// Precision selects the inference arithmetic: PrecisionF64 (default)
	// runs the training-grade float64 forward; PrecisionF32 serves MEGA
	// batches through the frozen float32 fast path (checkpoint parameters
	// downcast once at load, head-major fused kernels, no autograd tape).
	// Degraded (fallback-engine) answers always run float64 regardless.
	// Only models with a float32 path (GT, GAT) accept PrecisionF32.
	Precision string

	// cacheSet marks CacheCapacity as deliberately chosen, letting 0 mean
	// "disabled" rather than "default".
	cacheSet bool
}

// Precision values for Options.Precision.
const (
	// PrecisionF64 serves with the float64 training arithmetic.
	PrecisionF64 = "f64"
	// PrecisionF32 serves MEGA batches with the float32 fast path.
	PrecisionF32 = "f32"
)

// ErrBadOptions rejects an Options value New cannot honour. The
// constructor refuses outright instead of silently falling back to a
// default — a misconfigured knob that quietly serves with different
// arithmetic or preprocessing would invalidate every number measured
// against it.
var ErrBadOptions = errors.New("serve: invalid options")

// Validate checks the knobs that have no sensible default to fall back
// to: Precision must name one of the two arithmetics, and the
// sparsification fraction must lie in [0, 1].
func (o Options) Validate() error {
	switch o.Precision {
	case "", PrecisionF64, PrecisionF32:
	default:
		return fmt.Errorf("%w: Precision %q (want %q or %q)", ErrBadOptions, o.Precision, PrecisionF64, PrecisionF32)
	}
	if f := o.Mega.TraverseOptions().SparsifyFraction; f < 0 || f > 1 {
		return fmt.Errorf("%w: SparsifyFraction %v outside [0, 1]", ErrBadOptions, f)
	}
	return nil
}

// WithCacheCapacity returns o with an explicit cache bound; use capacity 0
// to disable caching outright.
func (o Options) WithCacheCapacity(capacity int) Options {
	o.CacheCapacity = capacity
	o.cacheSet = true
	return o
}

func (o Options) withDefaults() Options {
	if o.Engine == 0 {
		o.Engine = models.EngineMega
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheCapacity == 0 && !o.cacheSet {
		o.CacheCapacity = 4096
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 500 * time.Millisecond
	}
	if o.ShutdownGrace <= 0 {
		o.ShutdownGrace = 5 * time.Second
	}
	if o.Precision == "" {
		o.Precision = PrecisionF64
	}
	return o
}

// Prediction is the service's answer for one graph.
type Prediction struct {
	// Output is the model's raw output row: one scalar for regression,
	// class logits for classification.
	Output []float64 `json:"output"`
	// Label is the argmax class (classification checkpoints only).
	Label *int `json:"label,omitempty"`
	// CacheHit reports whether preprocessing was served from the
	// path-representation cache.
	CacheHit bool `json:"cache_hit"`
	// Degraded reports that MEGA preprocessing was unavailable (failure
	// or open circuit breaker) and the prediction came from the fallback
	// engine instead. Degraded answers are exact for that engine — a
	// different attention layout, not an approximation — but may differ
	// numerically from the MEGA-engine answer on graphs with revisits.
	Degraded bool `json:"degraded,omitempty"`
	// Precision is "f32" when the answer came from the float32 fast path;
	// omitted for float64 answers (including every degraded answer).
	Precision string `json:"precision,omitempty"`
}

// Server is a concurrent batched inference service over one trained model.
// The model's parameters are read-only after load, so any number of
// workers may run Forward concurrently.
type Server struct {
	model models.Model
	// modelF32 is the frozen float32 twin of model, non-nil only under
	// Options.Precision == PrecisionF32. Non-degraded MEGA batches run
	// through it; everything else (degraded fallback, non-MEGA engines)
	// stays on the float64 model.
	modelF32 models.ModelF32
	meta     train.Checkpoint
	opts     Options
	cache    *RepCache
	// repOpts is the digest of the effective traverse/sparsify options,
	// computed once; combined with each graph's topology fingerprint it
	// forms the rep-cache key.
	repOpts traverse.OptionsDigest
	metrics *Metrics
	breaker *breaker
	// queue is the bounded admission queue (Options.QueueDepth): PredictCtx
	// sends without blocking and sheds when it is full; free workers
	// receive from it.
	queue chan *pending
	// arena pools fused-attention scratch across batches; shared by all
	// workers (Arena is concurrency-safe), so steady-state serving stops
	// allocating in the attention path.
	arena *tensor.Arena

	mu     sync.RWMutex // guards closed vs. in-flight enqueues
	closed bool
	wg     sync.WaitGroup // workers

	// aborting flips when the shutdown grace window lapses: workers stop
	// forwarding and fail remaining requests with ErrShuttingDown.
	aborting atomic.Bool
	// graceExceeded records that Shutdown had to abort queued requests.
	graceExceeded atomic.Bool
	shutdownOnce  sync.Once
	shutdownDone  chan struct{}
}

// Service errors. Every request resolves to a prediction or exactly one of
// these (or a context error for deadline/cancellation) — the "no lost
// responses" contract the chaos harness pins.
var (
	ErrClosed          = errors.New("serve: server is closed")
	ErrInvalidInstance = errors.New("serve: invalid instance")
	// ErrOverloaded sheds a request because the admission queue is full;
	// HTTP maps it to 429 with Retry-After.
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrShuttingDown fails requests still queued when the shutdown grace
	// window lapses; HTTP maps it to 503.
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrWorkerCrashed wraps a worker panic that escaped the guarded
	// forward pass; the worker is replaced automatically.
	ErrWorkerCrashed = errors.New("serve: worker crashed")
)

// New starts the worker pool around a loaded model. meta must describe
// model (its Config validates request vocabularies and sets the output
// interpretation). Invalid knob combinations are rejected with
// ErrBadOptions rather than silently adjusted (see Options.Validate).
func New(model models.Model, meta train.Checkpoint, opts Options) (*Server, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	var modelF32 models.ModelF32
	if opts.Precision == PrecisionF32 {
		var err error
		if modelF32, err = models.PrepareF32(model); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadOptions, err)
		}
	}
	// Cap the compute worker pool (internal/compute) at
	// max(1, NumCPU − Workers + 1) so intra-op parallelism composes with
	// the request-level Workers without oversubscribing the machine: each
	// forward pass runs on its worker goroutine plus up to NumCPU − Workers
	// helpers. The cap is process-global, so with several servers in one
	// process the last one constructed wins.
	compute.SetMaxThreads(max(1, runtime.NumCPU()-opts.Workers+1))
	s := &Server{
		model:        model,
		modelF32:     modelF32,
		meta:         meta,
		opts:         opts,
		cache:        NewRepCache(opts.CacheCapacity),
		repOpts:      opts.Mega.TraverseOptions().Digest(),
		metrics:      NewMetrics(),
		queue:        make(chan *pending, opts.QueueDepth),
		arena:        tensor.NewArena(),
		shutdownDone: make(chan struct{}),
	}
	s.breaker = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, func(from, to BreakerState) {
		s.metrics.breakerTransitions.Add(1)
		if to == BreakerOpen {
			s.metrics.breakerOpens.Add(1)
		}
	})
	for i := 0; i < opts.Workers; i++ {
		s.startWorker()
	}
	return s, nil
}

// startWorker launches one forward-pass worker. Each time it is free it
// receives one request from the admission queue, takes whatever else is
// already queued (takeBatch) and runs that batch; it exits when Shutdown
// has closed the queue and the queue is drained. A panic that escapes the
// guarded forward (e.g. raised outside the recover, or during dispatch)
// fails the in-flight batch with ErrWorkerCrashed and spawns a
// replacement, so the pool never silently shrinks.
func (s *Server) startWorker() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var cur []*pending
		defer func() {
			if r := recover(); r != nil {
				for _, p := range cur {
					p.finish(outcome{err: fmt.Errorf("%w: %v", ErrWorkerCrashed, r)})
				}
				s.metrics.workerRestarts.Add(1)
				// Replace before this goroutine exits; wg.Add happens
				// while our own slot is still held, so Close's Wait
				// cannot observe a zero in between.
				s.startWorker()
			}
		}()
		for p := range s.queue {
			cur = takeBatch(s.queue, p, s.opts.MaxBatch)
			s.runBatch(cur)
			cur = nil
		}
	}()
}

// NewFromCheckpointFile loads a megatrain checkpoint and serves it.
func NewFromCheckpointFile(path string, opts Options) (*Server, error) {
	meta, model, err := train.LoadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	return New(model, meta, opts)
}

// NewFromCheckpointDir serves the newest good checkpoint in a megatrain
// checkpoint directory (train.Options.CheckpointDir), quarantining corrupt
// files along the way; the number of quarantined files is surfaced on
// /metrics as checkpoint_recoveries.
func NewFromCheckpointDir(dir string, opts Options) (*Server, error) {
	meta, model, rep, err := train.LoadLatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	s, err := New(model, meta, opts)
	if err != nil {
		return nil, err
	}
	s.metrics.checkpointRecoveries.Add(uint64(len(rep.Quarantined)))
	return s, nil
}

// EffectiveOptions reports the options the server actually runs with,
// after defaulting — the knob record a capacity benchmark should attribute
// its numbers to.
func (s *Server) EffectiveOptions() Options { return s.opts }

// Meta returns the checkpoint description being served.
func (s *Server) Meta() train.Checkpoint { return s.meta }

// CacheStats snapshots the path-representation cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// BreakerState reports the preprocessing circuit breaker's position.
func (s *Server) BreakerState() BreakerState { return s.breaker.State() }

// MetricsSnapshot freezes the service counters and latency histograms.
func (s *Server) MetricsSnapshot(withBuckets bool) Snapshot {
	snap := s.metrics.Snapshot(s.cache.Stats(), withBuckets)
	snap.Arena = s.arena.Stats()
	snap.Precision = s.opts.Precision
	snap.Breaker = string(s.breaker.State())
	snap.QueueDepth = len(s.queue)
	snap.QueueCapacity = cap(s.queue)
	snap.Workers = s.opts.Workers
	return snap
}

// Close shuts the server down with the configured grace period
// (Options.ShutdownGrace). It is idempotent.
func (s *Server) Close() { s.Shutdown(context.Background()) }

// Shutdown stops accepting requests and drains queued and in-flight work.
// Requests still unanswered when the grace window (Options.ShutdownGrace,
// or ctx, whichever ends first) lapses are failed with ErrShuttingDown —
// bounded, and never silent. It returns ErrShuttingDown if any requests
// were aborted, nil on a clean drain. Idempotent; concurrent callers all
// block until shutdown completes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		close(s.queue)
		s.mu.Unlock()

		drained := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(drained)
		}()
		timer := time.NewTimer(s.opts.ShutdownGrace)
		defer timer.Stop()
		select {
		case <-drained:
		case <-timer.C:
			s.abortDrain(drained)
		case <-ctx.Done():
			s.abortDrain(drained)
		}
		close(s.shutdownDone)
	})
	<-s.shutdownDone
	if s.graceExceeded.Load() {
		return ErrShuttingDown
	}
	return nil
}

// abortDrain flips workers into fail-fast mode and waits for the pipeline
// to finish flushing typed errors to the remaining requests.
func (s *Server) abortDrain(drained <-chan struct{}) {
	s.graceExceeded.Store(true)
	s.aborting.Store(true)
	<-drained
}

// Predict runs one graph through the service with no caller context; the
// server's DefaultTimeout still applies. Safe for arbitrary concurrent
// callers.
func (s *Server) Predict(inst datasets.Instance) (Prediction, error) {
	return s.PredictCtx(context.Background(), inst)
}

// PredictCtx runs one graph through the service: validate, apply the
// request deadline, preprocess (cache hit, fresh traversal, or degraded
// fallback), enqueue into the admission queue with load shedding, and wait
// for the batched forward pass or the context, whichever finishes first.
func (s *Server) PredictCtx(ctx context.Context, inst datasets.Instance) (Prediction, error) {
	s.metrics.requests.Add(1)
	start := time.Now()
	if err := s.validate(inst); err != nil {
		return Prediction{}, s.failed(err)
	}
	ctx, cancel := s.requestContext(ctx)
	defer cancel()

	p := &pending{ctx: ctx, inst: inst, done: make(chan outcome, 1)}
	if s.opts.Engine == models.EngineMega {
		s.prepare(p)
	}

	// Admission: never block on a full queue — shed with a typed error
	// the client can back off on.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Prediction{}, s.failed(ErrClosed)
	}
	p.enqueued = time.Now()
	select {
	case s.queue <- p:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.metrics.shed.Add(1)
		return Prediction{}, s.failed(ErrOverloaded)
	}

	select {
	case out := <-p.done:
		s.metrics.total.observe(time.Since(start))
		if out.err != nil {
			return Prediction{}, s.failed(out.err)
		}
		return out.pred, nil
	case <-ctx.Done():
		// The worker may still answer into the buffered channel; the
		// caller stops waiting now. Workers drop expired requests before
		// forwarding, so an abandoned request does not burn a pass.
		return Prediction{}, s.failed(fmt.Errorf("serve: request abandoned: %w", ctx.Err()))
	}
}

// failed counts one failed predict by the error its caller receives, so a
// request whose deadline expired counts in deadline_exceeded whether the
// caller's own deadline branch answered it or the worker's "expired in
// queue" error did.
func (s *Server) failed(err error) error {
	s.metrics.errors.Add(1)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.deadlineExceeded.Add(1)
	case errors.Is(err, context.Canceled):
		s.metrics.canceled.Add(1)
	}
	return err
}

// requestContext applies the server's deadline policy: the caller's
// deadline wins when present (capped at MaxTimeout); otherwise
// DefaultTimeout applies.
func (s *Server) requestContext(ctx context.Context) (context.Context, context.CancelFunc) {
	limit := time.Duration(0)
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		limit = s.opts.DefaultTimeout
	}
	if s.opts.MaxTimeout > 0 && (limit == 0 || limit > s.opts.MaxTimeout) {
		if d, ok := ctx.Deadline(); !ok || time.Until(d) > s.opts.MaxTimeout {
			limit = s.opts.MaxTimeout
		}
	}
	if limit <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, limit)
}

// prepare resolves the MEGA path representation for one request: cache
// hit, fresh traversal behind the circuit breaker, or — when
// preprocessing fails or the breaker is open — the degraded fallback
// (served by the GAT-free engine without a path representation). The
// request always proceeds; degradation is visible in the Prediction.
func (s *Server) prepare(p *pending) {
	key := s.repKey(p.inst.G.Fingerprint())
	if faults.Inject(faults.ServeCacheGet) == nil {
		if prep, ok := s.cache.Get(key); ok {
			p.prep, p.cacheHit = prep, true
			return
		}
	}
	if !s.breaker.allow() {
		s.degrade(p)
		return
	}
	t0 := time.Now()
	err := faults.Inject(faults.ServePrepare)
	var prep *models.PreparedRep
	if err == nil {
		prep, err = models.PrepareMega(p.inst.G, s.opts.Mega)
	}
	s.metrics.preprocess.observe(time.Since(t0))
	if err != nil {
		s.breaker.failure()
		s.metrics.prepareFailures.Add(1)
		s.degrade(p)
		return
	}
	s.breaker.success()
	if faults.Inject(faults.ServeCachePut) == nil {
		s.cache.Put(key, prep)
	}
	p.prep = prep
}

func (s *Server) degrade(p *pending) {
	p.degraded = true
	s.metrics.degraded.Add(1)
}

// validate rejects instances the embedding tables cannot index — an
// out-of-vocabulary ID would panic deep inside the forward pass otherwise.
func (s *Server) validate(inst datasets.Instance) error {
	cfg := s.meta.Config
	g := inst.G
	if g == nil || g.NumNodes() == 0 {
		return fmt.Errorf("%w: empty graph", ErrInvalidInstance)
	}
	if g.Directed() {
		return fmt.Errorf("%w: serving covers undirected graphs (the paper's setting)", ErrInvalidInstance)
	}
	if len(inst.NodeFeat) != g.NumNodes() {
		return fmt.Errorf("%w: %d node features for %d nodes", ErrInvalidInstance, len(inst.NodeFeat), g.NumNodes())
	}
	if len(inst.EdgeFeat) != g.NumEdges() {
		return fmt.Errorf("%w: %d edge features for %d edges", ErrInvalidInstance, len(inst.EdgeFeat), g.NumEdges())
	}
	for i, f := range inst.NodeFeat {
		if f < 0 || int(f) >= cfg.NodeTypes {
			return fmt.Errorf("%w: node feature %d = %d outside vocabulary [0,%d)", ErrInvalidInstance, i, f, cfg.NodeTypes)
		}
	}
	for i, f := range inst.EdgeFeat {
		if f < 0 || int(f) >= cfg.EdgeTypes {
			return fmt.Errorf("%w: edge feature %d = %d outside vocabulary [0,%d)", ErrInvalidInstance, i, f, cfg.EdgeTypes)
		}
	}
	return nil
}

// runBatch triages a taken batch — shutdown abort, expired requests,
// degraded split — then runs the forward pass(es) and scatters per-graph
// output rows back to their callers. Every pending in the batch is
// finished exactly once on every path.
func (s *Server) runBatch(batch []*pending) {
	// The dispatch injection point sits outside the guarded forward on
	// purpose: a panic here escapes to the worker wrapper and exercises
	// worker replacement.
	if err := faults.Inject(faults.ServeDispatch); err != nil {
		for _, p := range batch {
			p.finish(outcome{err: err})
		}
		return
	}
	if s.aborting.Load() {
		for _, p := range batch {
			p.finish(outcome{err: ErrShuttingDown})
		}
		return
	}
	now := time.Now()
	var normal, degraded []*pending
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			// Abandoned while queued: answer the (already departed)
			// caller without burning forward-pass compute on it.
			p.finish(outcome{err: fmt.Errorf("serve: expired in queue: %w", err)})
			continue
		}
		s.metrics.queue.observe(now.Sub(p.enqueued))
		if p.degraded {
			degraded = append(degraded, p)
		} else {
			normal = append(normal, p)
		}
	}
	s.runGroup(normal, s.opts.Engine)
	s.runGroup(degraded, models.EngineDGL)
}

// runGroup forwards one engine-homogeneous group and answers it.
func (s *Server) runGroup(group []*pending, engine models.EngineKind) {
	if len(group) == 0 {
		return
	}
	start := time.Now()
	preds, err := s.forward(group, engine)
	s.metrics.observeBatch(len(group), time.Since(start))
	if err != nil {
		for _, p := range group {
			p.finish(outcome{err: err})
		}
		return
	}
	for i, p := range group {
		p.finish(outcome{pred: preds[i]})
	}
}

// forward builds the engine context for the batch and runs the model,
// converting panics from deeper layers into errors so one bad batch
// cannot take the worker down. Panics raised on compute-pool helper
// goroutines arrive here as compute.PanicError re-raised on this
// goroutine, so the recover genuinely covers the whole forward pass.
func (s *Server) forward(batch []*pending, engine models.EngineKind) (preds []Prediction, err error) {
	defer func() {
		if r := recover(); r != nil {
			preds, err = nil, fmt.Errorf("serve: forward pass panicked: %v", r)
		}
	}()
	if err := faults.Inject(faults.ServeForward); err != nil {
		return nil, err
	}
	insts := make([]datasets.Instance, len(batch))
	for i, p := range batch {
		insts[i] = p.inst
	}
	var ctx *models.Context
	if engine == models.EngineMega {
		preps := make([]*models.PreparedRep, len(batch))
		for i, p := range batch {
			preps[i] = p.prep
		}
		ctx, err = models.NewMegaContextFromReps(insts, preps, nil, s.meta.Config.Dim)
	} else {
		ctx, err = models.NewDGLContext(insts, nil, s.meta.Config.Dim)
	}
	if err != nil {
		return nil, err
	}
	ctx.Scratch = s.arena
	// Two arms: a MEGA batch on a PrecisionF32 server runs the frozen
	// float32 model; every other batch, degraded ones included, runs the
	// float64 model.
	var out *tensor.Tensor
	precision := ""
	if engine == models.EngineMega && s.modelF32 != nil {
		f32out := s.modelF32.Forward(ctx, s.arena)
		out = f32out.Upcast()
		s.arena.PutF32(f32out)
		precision = PrecisionF32
	} else {
		out = s.model.Forward(ctx)
	}
	cols := out.Cols()
	preds = make([]Prediction, len(batch))
	for i, p := range batch {
		row := make([]float64, cols)
		copy(row, out.Data[i*cols:(i+1)*cols])
		pred := Prediction{Output: row, CacheHit: p.cacheHit, Degraded: p.degraded, Precision: precision}
		if s.meta.Task == datasets.TaskClassification {
			best := 0
			for j := 1; j < cols; j++ {
				if row[j] > row[best] {
					best = j
				}
			}
			label := best
			pred.Label = &label
		}
		preds[i] = pred
	}
	return preds, nil
}

// GraphRequest is the /predict JSON body: an explicit graph with
// categorical features, matching datasets.Instance.
type GraphRequest struct {
	NumNodes int        `json:"num_nodes"`
	Edges    [][2]int32 `json:"edges"`
	// NodeFeats[v] / EdgeFeats[e] are categorical IDs in the model's
	// vocabularies. Omitted slices default to all-zero features.
	NodeFeats []int32 `json:"node_feats,omitempty"`
	EdgeFeats []int32 `json:"edge_feats,omitempty"`
	// TimeoutMs overrides the server's default request deadline for this
	// request, capped at the server's MaxTimeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Instance converts the wire format into a validated datasets.Instance.
func (r *GraphRequest) Instance() (datasets.Instance, error) {
	edges := make([]graph.Edge, len(r.Edges))
	for i, e := range r.Edges {
		edges[i] = graph.Edge{Src: e[0], Dst: e[1]}
	}
	g, err := graph.New(r.NumNodes, edges, false)
	if err != nil {
		return datasets.Instance{}, err
	}
	nf := r.NodeFeats
	if nf == nil {
		nf = make([]int32, g.NumNodes())
	}
	ef := r.EdgeFeats
	if ef == nil {
		ef = make([]int32, g.NumEdges())
	}
	return datasets.Instance{G: g, NodeFeat: nf, EdgeFeat: ef}, nil
}

const maxRequestBody = 8 << 20

// Health is the /healthz document: liveness plus the failure-domain state
// an operator (or load balancer) needs to interpret degraded service.
type Health struct {
	// Status is "ok", "degraded" (breaker not closed), or "stopping".
	Status string `json:"status"`
	// Breaker is the preprocessing circuit breaker state.
	Breaker string `json:"breaker"`
	// QueueDepth/QueueCapacity describe admission headroom.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Workers is the configured worker-pool size (kept constant by
	// automatic replacement); WorkerRestarts counts replacements.
	Workers        int    `json:"workers"`
	WorkerRestarts uint64 `json:"worker_restarts"`
}

// HealthSnapshot builds the /healthz document.
func (s *Server) HealthSnapshot() Health {
	h := Health{
		Breaker:        string(s.breaker.State()),
		QueueDepth:     len(s.queue),
		QueueCapacity:  cap(s.queue),
		Workers:        s.opts.Workers,
		WorkerRestarts: s.metrics.workerRestarts.Load(),
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	switch {
	case closed:
		h.Status = "stopping"
	case h.Breaker != string(BreakerClosed):
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	return h
}

// Handler returns the HTTP surface: POST /predict, POST /update,
// GET /metrics, GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req GraphRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	inst, err := req.Instance()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// r.Context() ends when the client disconnects, so abandoned
	// connections cancel their queued work; a per-request timeout_ms
	// narrows it further (PredictCtx caps both at MaxTimeout).
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	pred, err := s.PredictCtx(ctx, inst)
	switch {
	case errors.Is(err, ErrInvalidInstance), errors.Is(err, graph.ErrEdgeOutOfRange):
		httpError(w, http.StatusBadRequest, err.Error())
		return
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, err.Error())
		return
	case errors.Is(err, ErrClosed), errors.Is(err, ErrShuttingDown):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(pred)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.MetricsSnapshot(true))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.HealthSnapshot()
	w.Header().Set("Content-Type", "application/json")
	if h.Status == "stopping" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// repKey combines a graph's topology fingerprint with the server's
// traverse/sparsify options digest — the full identity of a prepared rep.
func (s *Server) repKey(fp graph.Fingerprint) RepKey {
	return RepKey{Topo: fp, Opts: s.repOpts}
}
