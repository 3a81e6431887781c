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

	var sim *gpusim.Sim
	if opts.Profile {
		sim = gpusim.New(gpusim.GTX1080())
	}

	// One arena for the whole run: every batch reuses the same scratch
	// buffers, so the steady-state fused-attention path allocates nothing.
	// One tape likewise holds each step's graph, released after the step.
	arena := tensor.NewArena()
	tape := tensor.NewTape()
	trainCtxs, err := buildContexts(ds.Train, opts, sim, arena, tape)
	if err != nil {
		return nil, err
	}
	valCtxs, err := buildContexts(ds.Val, opts, sim, arena, tape)
	if err != nil {
		return nil, err
	}
	opt := nn.NewAdam(model.Params(), opts.LR)
	res := &Result{
		Sim: sim, Params: opt.NumParams(), Task: ds.Task,
		Model: model, ModelName: opts.Model, Config: cfg,
		QuarantinedCheckpoints: quarantined,
	}
	if startEpoch > 1 {
		res.ResumedEpoch = startEpoch - 1
	}

	start := time.Now()
	for epoch := startEpoch; epoch <= opts.Epochs; epoch++ {
		trainLoss := 0.0
		for _, ctx := range trainCtxs {
			loss, ok := step(ds.Task, model, opt, ctx)
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

// step runs one optimiser step on ctx and releases the context's tape. It
// returns the step's loss, or false without stepping when the loss is
// non-finite.
func step(task datasets.Task, model models.Model, opt *nn.Adam, ctx *models.Context) (float64, bool) {
	opt.ZeroGrad()
	out := model.Forward(ctx)
	loss := lossFor(task, out, ctx)
	if !loss.IsFinite() {
		return 0, false
	}
	loss.Backward()
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
