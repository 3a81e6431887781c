// Package train runs end-to-end GNN training for the convergence
// experiments (Figures 11–15): real learning dynamics computed in Go,
// placed on the simulated GPU clock from gpusim so the wall-clock axis
// reflects the kernels each engine would execute (see DESIGN.md,
// substitutions).
package train

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"mega/internal/compute"
	"mega/internal/datasets"
	"mega/internal/gpusim"
	"mega/internal/models"
	"mega/internal/nn"
	"mega/internal/retry"
	"mega/internal/tensor"
)

// Options configures one training run.
type Options struct {
	// Model selects the configuration: "GCN" or "GT".
	Model string
	// Engine selects the attention engine.
	Engine models.EngineKind
	// Dim/Layers/Heads size the model (defaults 64/4/4).
	Dim    int
	Layers int
	Heads  int
	// BatchSize groups instances per step (default 64).
	BatchSize int
	// LR is the Adam learning rate (default 1e-3).
	LR float64
	// Epochs bounds training (default 10).
	Epochs int
	// Seed seeds parameter init.
	Seed int64
	// Profile attaches a GPU simulator; required for simulated-time axes.
	Profile bool
	// Mega configures MEGA preprocessing (Engine == EngineMega only).
	Mega models.MegaOptions
	// MaxTrain/MaxVal cap the instances used (0 = all), for fast tests.
	MaxTrain int
	MaxVal   int
	// LRPlateau enables the benchmark suite's reduce-on-plateau schedule:
	// halve the learning rate after 5 epochs without validation-loss
	// improvement.
	LRPlateau bool
	// Threads caps the compute worker pool for the duration of the run
	// (0 = leave the process-wide budget alone; see internal/compute).
	// Results are identical at any setting — the kernels partition work
	// deterministically — so this is purely a resource-control knob.
	Threads int
	// Attention is passed to models.Config.Attention: "" or "fused", the
	// one implementation; anything else fails model construction.
	Attention string
	// CheckpointDir enables periodic checkpointing: every CheckpointEvery
	// epochs (and after the final epoch) the model is written atomically
	// to CheckpointDir/ckpt-<epoch>.ckpt. Empty disables.
	CheckpointDir string
	// CheckpointEvery is the epoch interval for periodic checkpoints
	// (default 1 when CheckpointDir is set).
	CheckpointEvery int
	// Resume loads the newest good checkpoint from CheckpointDir before
	// training and continues from its recorded epoch. Corrupt files are
	// quarantined, not fatal; an empty directory starts fresh. The
	// checkpoint must match this run's model name and configuration.
	// Optimiser moments are not checkpointed: the resumed run restarts
	// Adam at the loaded parameters.
	Resume bool
	// Shards enables shard-parallel execution of the MEGA engine: each
	// training batch runs forward and backward across Shards chunk
	// workers (GT + EngineMega only; Shards must divide 8). The training
	// trajectory is bit-identical at every Shards value >= 1 — Shards=1
	// runs the same chunked engine on one worker — but differs from the
	// Shards=0 monolithic path, whose gradient reductions accumulate in
	// a different (equally valid) order. Contexts the planner rejects
	// (path shorter than 8 chunks, window wider than a chunk) fall back
	// to the monolithic path; the fallback is worker-count-independent,
	// so trajectories stay comparable across Shards values. 0 disables.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Model == "" {
		o.Model = "GCN"
	}
	if o.Engine == 0 {
		o.Engine = models.EngineDGL
	}
	if o.Dim == 0 {
		o.Dim = 64
	}
	if o.Layers == 0 {
		o.Layers = 4
	}
	if o.Heads == 0 {
		o.Heads = 4
	}
	if o.BatchSize == 0 {
		o.BatchSize = 64
	}
	if o.LR == 0 {
		o.LR = 1e-3
	}
	if o.Epochs == 0 {
		o.Epochs = 10
	}
	if o.CheckpointDir != "" && o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1
	}
	return o
}

// EpochStat records one epoch's outcome.
type EpochStat struct {
	Epoch     int
	TrainLoss float64
	ValLoss   float64
	// ValMetric is MAE for regression, accuracy for classification.
	ValMetric float64
	// SimTime is the cumulative simulated GPU time at epoch end.
	SimTime time.Duration
	// WallTime is cumulative real (Go) time, informational only.
	WallTime time.Duration
}

// Result is a completed run.
type Result struct {
	Stats []EpochStat
	// Sim exposes the simulator for kernel-level reporting (nil when
	// profiling is off).
	Sim *gpusim.Sim
	// Params is the model's trainable parameter count.
	Params int
	// Task echoes the dataset task.
	Task datasets.Task
	// Model is the trained network, kept for checkpointing and direct
	// inference after the run.
	Model models.Model
	// ModelName and Config record the architecture for Checkpoint().
	ModelName string
	Config    models.Config
	// Diverged reports that training aborted early because the loss went
	// non-finite; Stats covers only the completed epochs.
	Diverged bool
	// ResumedEpoch is the checkpointed epoch the run continued from
	// (0 = fresh start).
	ResumedEpoch int
	// LastCheckpoint is the newest checkpoint file this run wrote.
	LastCheckpoint string
	// CheckpointFailures counts periodic checkpoints that failed even
	// after retries; training continues past them.
	CheckpointFailures int
	// QuarantinedCheckpoints counts corrupt files quarantined while
	// resuming.
	QuarantinedCheckpoints int
	// ShardFallbacks counts training contexts the shard planner rejected
	// (path too short to cut into µchunks); those contexts trained through
	// the monolithic path instead. Only meaningful when Options.Shards > 0.
	ShardFallbacks int
	// ShardFallbackReasons breaks ShardFallbacks down by cause:
	// "unshardable" for structural rejections (models.ErrUnshardable — path too short, band
	// wider than a µchunk), "error" for anything else. nil when nothing
	// fell back.
	ShardFallbackReasons map[string]int
}

// FinalMetric returns the last epoch's validation metric.
func (r *Result) FinalMetric() float64 {
	if len(r.Stats) == 0 {
		return 0
	}
	return r.Stats[len(r.Stats)-1].ValMetric
}

// TimeToLoss returns the first simulated time at which validation loss
// dropped to at most target, and whether it happened — the convergence-
// speedup measure of §IV-B4.
func (r *Result) TimeToLoss(target float64) (time.Duration, bool) {
	for _, s := range r.Stats {
		if s.ValLoss <= target {
			return s.SimTime, true
		}
	}
	return 0, false
}

// ErrUnknownModel is returned for model names other than GCN/GT.
var ErrUnknownModel = errors.New("train: unknown model")

// Run trains the configured model on ds and returns per-epoch statistics.
func Run(ds *datasets.Dataset, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Threads > 0 {
		prev := compute.SetMaxThreads(opts.Threads)
		defer compute.SetMaxThreads(prev)
	}

	cfg := models.Config{
		Dim: opts.Dim, Layers: opts.Layers, Heads: opts.Heads,
		NodeTypes: ds.NumNodeTypes, EdgeTypes: ds.NumEdgeTypes,
		OutDim: 1, Seed: opts.Seed, Attention: opts.Attention,
	}
	if ds.Task == datasets.TaskClassification {
		cfg.OutDim = ds.NumClasses
	}
	model, err := NewModel(opts.Model, cfg)
	if err != nil {
		return nil, err
	}

	startEpoch := 1
	var quarantined int
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("train: checkpoint dir: %w", err)
		}
	}
	if opts.Resume && opts.CheckpointDir != "" {
		meta, loaded, rep, lerr := LoadLatestCheckpoint(opts.CheckpointDir)
		quarantined = len(rep.Quarantined)
		switch {
		case errors.Is(lerr, ErrNoCheckpoint):
			// Fresh start; quarantines (if any) are still reported.
		case lerr != nil:
			return nil, lerr
		case meta.Model != opts.Model || meta.Config != cfg:
			return nil, fmt.Errorf("%w: checkpoint %s holds %s %+v, run wants %s %+v",
				ErrResumeMismatch, rep.Path, meta.Model, meta.Config, opts.Model, cfg)
		default:
			model = loaded
			startEpoch = meta.Epoch + 1
		}
	}

	// Sharded execution: validated here, after any checkpoint resume, so
	// shardGT always points at the model that will actually train.
	var shardGT *models.GT
	if opts.Shards > 0 {
		if opts.Engine != models.EngineMega {
			return nil, fmt.Errorf("train: sharded execution requires the MEGA engine")
		}
		if opts.Profile {
			return nil, fmt.Errorf("train: sharded execution does not support profiling")
		}
		gt, ok := model.(*models.GT)
		if !ok {
			return nil, fmt.Errorf("train: sharded execution requires the GT model, got %s", opts.Model)
		}
		shardGT = gt
	}

	var sim *gpusim.Sim
	if opts.Profile {
		sim = gpusim.New(gpusim.GTX1080())
	}

	trainInsts := capInstances(ds.Train, opts.MaxTrain)
	valInsts := capInstances(ds.Val, opts.MaxVal)
	// One arena for the whole run: every batch reuses the same scratch
	// buffers, so the steady-state fused-attention path allocates nothing.
	// One tape likewise holds each step's graph, released after the step;
	// the shard engine's workers build their graphs concurrently, so a
	// sharded run keeps the heap.
	arena := tensor.NewArena()
	var tape *tensor.Tape
	if opts.Shards == 0 {
		tape = tensor.NewTape()
	}
	trainCtxs, err := buildContexts(trainInsts, opts, sim, arena, tape)
	if err != nil {
		return nil, err
	}
	valCtxs, err := buildContexts(valInsts, opts, sim, arena, tape)
	if err != nil {
		return nil, err
	}
	// Per-context shard engines, built once and reused every epoch (the
	// plan and parameter replicas are static; only tapes are per-step).
	// A context the planner rejects keeps a nil engine and trains through
	// the monolithic path — the rejection criteria are chunk-level, so a
	// context falls back identically at every worker count.
	var shardEngines []*models.ShardEngine
	shardFallbacks := 0
	var shardFallbackReasons map[string]int
	if shardGT != nil {
		shardEngines = make([]*models.ShardEngine, len(trainCtxs))
		var fallbackErr error
		for i, ctx := range trainCtxs {
			if eng, err := models.NewShardEngine(shardGT, ctx, opts.Shards); err == nil {
				shardEngines[i] = eng
			} else {
				shardFallbacks++
				fallbackErr = err
				reason := "error"
				if errors.Is(err, models.ErrUnshardable) {
					reason = "unshardable"
				}
				if shardFallbackReasons == nil {
					shardFallbackReasons = make(map[string]int)
				}
				shardFallbackReasons[reason]++
			}
		}
		if shardFallbacks > 0 {
			// One line for the whole run, not one per context: the
			// rejection criteria are chunk-level and static, so every epoch
			// would repeat the same message. The reasons map attributes
			// each fallback, so none is silent.
			log.Printf("train: %d/%d contexts fell back to the monolithic engine (shards=%d, reasons=%v): %v",
				shardFallbacks, len(trainCtxs), opts.Shards, shardFallbackReasons, fallbackErr)
		}
	}

	opt := nn.NewAdam(model.Params(), opts.LR)
	res := &Result{
		Sim: sim, Params: opt.NumParams(), Task: ds.Task,
		Model: model, ModelName: opts.Model, Config: cfg,
		QuarantinedCheckpoints: quarantined,
		ShardFallbacks:         shardFallbacks,
		ShardFallbackReasons:   shardFallbackReasons,
	}
	if startEpoch > 1 {
		res.ResumedEpoch = startEpoch - 1
	}
	var sched *nn.PlateauScheduler
	if opts.LRPlateau {
		sched = nn.NewPlateauScheduler(opt)
	}

	start := time.Now()
	for epoch := startEpoch; epoch <= opts.Epochs; epoch++ {
		trainLoss := 0.0
		for i, ctx := range trainCtxs {
			var eng *models.ShardEngine
			if shardEngines != nil {
				eng = shardEngines[i]
			}
			loss, ok := step(ds.Task, model, opt, ctx, eng)
			if !ok {
				// Divergence guard: a NaN/Inf loss poisons every later
				// step; abort and report what completed.
				res.Diverged = true
				return res, nil
			}
			trainLoss += loss
		}
		if len(trainCtxs) > 0 {
			trainLoss /= float64(len(trainCtxs))
		}

		valLoss, valMetric := evaluate(ds.Task, model, valCtxs)
		if sched != nil {
			sched.Step(valLoss)
		}

		stat := EpochStat{
			Epoch:     epoch,
			TrainLoss: trainLoss,
			ValLoss:   valLoss,
			ValMetric: valMetric,
			WallTime:  time.Since(start),
		}
		if sim != nil {
			stat.SimTime = sim.TotalTime()
		}
		res.Stats = append(res.Stats, stat)

		if opts.CheckpointDir != "" &&
			(epoch%opts.CheckpointEvery == 0 || epoch == opts.Epochs) {
			meta := res.Checkpoint(ds.Name)
			meta.Epoch = epoch
			path := CheckpointPath(opts.CheckpointDir, epoch)
			err := retry.Do(context.Background(), ckptSaveRetry, func() error {
				return SaveCheckpointFile(path, meta, model)
			})
			if err != nil {
				// A failed periodic checkpoint costs durability, not the
				// run: keep training and surface the count.
				res.CheckpointFailures++
			} else {
				res.LastCheckpoint = path
			}
		}
	}
	return res, nil
}

// step runs one optimiser step on ctx — through eng when it is non-nil —
// and releases the context's tape. It returns the step's loss, or false
// without stepping when the loss is non-finite.
func step(task datasets.Task, model models.Model, opt *nn.Adam, ctx *models.Context, eng *models.ShardEngine) (float64, bool) {
	opt.ZeroGrad()
	var out *tensor.Tensor
	if eng != nil {
		out = eng.Forward()
	} else {
		out = model.Forward(ctx)
	}
	loss := lossFor(task, out, ctx)
	if !loss.IsFinite() {
		return 0, false
	}
	loss.Backward()
	if eng != nil {
		// loss.Backward seeded the readout and final-embedding
		// gradients; the shard workers now push them through the
		// layers and fold replica gradients into the model.
		eng.Backward()
	}
	ctx.Prof.Backward()
	opt.Step()
	l := loss.Item()
	ctx.Tape.Release()
	return l, true
}

// ckptSaveRetry paces periodic-checkpoint write retries (torn writes are
// retried against a fresh temp file; the rename is atomic either way).
var ckptSaveRetry = retry.Config{Attempts: 3, Base: 5 * time.Millisecond}

// ErrResumeMismatch means the newest good checkpoint does not describe the
// model this run is configured to train.
var ErrResumeMismatch = errors.New("train: resume checkpoint mismatch")

// Evaluate runs inference over prebuilt contexts; exported for the test
// split of the experiments.
func Evaluate(task datasets.Task, model models.Model, ctxs []*models.Context) (loss, metric float64) {
	return evaluate(task, model, ctxs)
}

func evaluate(task datasets.Task, model models.Model, ctxs []*models.Context) (loss, metric float64) {
	if len(ctxs) == 0 {
		return 0, 0
	}
	for _, ctx := range ctxs {
		out := model.Forward(ctx)
		l := lossFor(task, out, ctx)
		loss += l.Item()
		if task == datasets.TaskClassification {
			metric += tensor.Accuracy(out, ctx.Labels)
		} else {
			metric += tensor.MAELoss(out.Detach(), ctx.Targets).Item()
		}
		ctx.Prof.Discard()
		ctx.Tape.Release()
	}
	n := float64(len(ctxs))
	return loss / n, metric / n
}

// lossFor selects the training loss per task: MAE-style L1 for the
// molecular regressions (the benchmark-suite convention), cross-entropy
// for classification.
func lossFor(task datasets.Task, out *tensor.Tensor, ctx *models.Context) *tensor.Tensor {
	if task == datasets.TaskClassification {
		return tensor.CrossEntropyLoss(out, ctx.Labels)
	}
	return tensor.MAELoss(out, ctx.Targets)
}

// buildContexts batches instances and constructs per-batch engine contexts
// sharing one scratch arena and one tape.
func buildContexts(insts []datasets.Instance, opts Options, sim *gpusim.Sim, arena *tensor.Arena, tape *tensor.Tape) ([]*models.Context, error) {
	var out []*models.Context
	for lo := 0; lo < len(insts); lo += opts.BatchSize {
		hi := lo + opts.BatchSize
		if hi > len(insts) {
			hi = len(insts)
		}
		var ctx *models.Context
		var err error
		if opts.Engine == models.EngineMega {
			ctx, err = models.NewMegaContext(insts[lo:hi], opts.Mega, sim, opts.Dim)
		} else {
			ctx, err = models.NewDGLContext(insts[lo:hi], sim, opts.Dim)
		}
		if err != nil {
			return nil, err
		}
		ctx.Scratch = arena
		ctx.Tape = tape
		out = append(out, ctx)
	}
	return out, nil
}

func capInstances(insts []datasets.Instance, max int) []datasets.Instance {
	if max > 0 && len(insts) > max {
		return insts[:max]
	}
	return insts
}
