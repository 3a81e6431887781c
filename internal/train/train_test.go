package train

import (
	"testing"

	"mega/internal/datasets"
	"mega/internal/models"
)

func tinyDataset(t *testing.T, name string) *datasets.Dataset {
	t.Helper()
	d, err := datasets.Generate(name, datasets.Config{TrainSize: 24, ValSize: 8, TestSize: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyOpts(engine models.EngineKind) Options {
	return Options{
		Model: "GCN", Engine: engine,
		Dim: 16, Layers: 2, Heads: 2,
		BatchSize: 8, LR: 3e-3, Epochs: 3, Seed: 1,
	}
}

func TestRunUnknownModel(t *testing.T) {
	d := tinyDataset(t, "ZINC")
	opts := tinyOpts(models.EngineDGL)
	opts.Model = "SAGE"
	if _, err := Run(d, opts); err == nil {
		t.Error("unknown model should error")
	}
}

func TestRunRegressionBothEngines(t *testing.T) {
	d := tinyDataset(t, "ZINC")
	for _, engine := range []models.EngineKind{models.EngineDGL, models.EngineMega} {
		t.Run(engine.String(), func(t *testing.T) {
			res, err := Run(d, tinyOpts(engine))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Stats) != 3 {
				t.Fatalf("epochs = %d, want 3", len(res.Stats))
			}
			if res.Params == 0 {
				t.Error("param count missing")
			}
			first, last := res.Stats[0], res.Stats[len(res.Stats)-1]
			if last.TrainLoss >= first.TrainLoss {
				t.Errorf("train loss did not decrease: %v -> %v", first.TrainLoss, last.TrainLoss)
			}
			if res.Task != datasets.TaskRegression {
				t.Error("task not propagated")
			}
		})
	}
}

func TestRunClassification(t *testing.T) {
	d := tinyDataset(t, "CYCLES")
	opts := tinyOpts(models.EngineDGL)
	opts.Epochs = 5
	res, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Stats[len(res.Stats)-1]
	if last.ValMetric < 0 || last.ValMetric > 1 {
		t.Errorf("accuracy = %v out of range", last.ValMetric)
	}
	if last.TrainLoss >= res.Stats[0].TrainLoss {
		t.Errorf("classification loss did not decrease: %v -> %v", res.Stats[0].TrainLoss, last.TrainLoss)
	}
}

func TestSimulatedClockAdvances(t *testing.T) {
	d := tinyDataset(t, "AQSOL")
	opts := tinyOpts(models.EngineDGL)
	opts.Profile = true
	res, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim == nil {
		t.Fatal("profiling requested but Sim nil")
	}
	prev := int64(-1)
	for _, s := range res.Stats {
		if int64(s.SimTime) <= prev {
			t.Errorf("sim time not strictly increasing: %v then %v", prev, s.SimTime)
		}
		prev = int64(s.SimTime)
	}
}

func TestMegaConvergesFasterOnSimClock(t *testing.T) {
	// The end-to-end claim (Figs 11-14): at equal epochs, MEGA's simulated
	// time per epoch is lower, so time-to-loss is lower.
	d := tinyDataset(t, "ZINC")
	mkOpts := func(engine models.EngineKind) Options {
		o := tinyOpts(engine)
		o.Model = "GT"
		o.Profile = true
		o.Epochs = 2
		return o
	}
	dgl, err := Run(d, mkOpts(models.EngineDGL))
	if err != nil {
		t.Fatal(err)
	}
	mega, err := Run(d, mkOpts(models.EngineMega))
	if err != nil {
		t.Fatal(err)
	}
	dglT := dgl.Stats[len(dgl.Stats)-1].SimTime
	megaT := mega.Stats[len(mega.Stats)-1].SimTime
	if megaT >= dglT {
		t.Errorf("mega simulated epoch time %v should be below dgl %v", megaT, dglT)
	}
	t.Logf("GT 2-epoch sim time: dgl=%v mega=%v speedup=%.2fx", dglT, megaT, float64(dglT)/float64(megaT))
}

func TestTimeToLoss(t *testing.T) {
	r := &Result{Stats: []EpochStat{
		{Epoch: 1, ValLoss: 1.0, SimTime: 10},
		{Epoch: 2, ValLoss: 0.5, SimTime: 20},
		{Epoch: 3, ValLoss: 0.4, SimTime: 30},
	}}
	if tt, ok := r.TimeToLoss(0.5); !ok || tt != 20 {
		t.Errorf("TimeToLoss(0.5) = %v, %v", tt, ok)
	}
	if _, ok := r.TimeToLoss(0.1); ok {
		t.Error("unreachable target should report false")
	}
	if r.FinalMetric() != 0 {
		t.Errorf("FinalMetric = %v", r.FinalMetric())
	}
}

func TestEdgeDroppingTrains(t *testing.T) {
	d := tinyDataset(t, "AQSOL")
	opts := tinyOpts(models.EngineMega)
	opts.Mega.Traverse.EdgeCoverage = 1
	opts.Mega.Traverse.DropEdges = 0.2
	opts.Mega.Traverse.Seed = 3
	res, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[len(res.Stats)-1].TrainLoss >= res.Stats[0].TrainLoss {
		t.Error("edge-dropped training did not reduce loss")
	}
}

func TestDivergenceGuard(t *testing.T) {
	// An absurd learning rate drives the loss non-finite within a few
	// steps; the trainer must stop cleanly instead of emitting NaNs.
	d := tinyDataset(t, "ZINC")
	opts := tinyOpts(models.EngineDGL)
	opts.LR = 1e15
	opts.Epochs = 50
	res, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged {
		t.Skip("training survived the absurd LR (clipping held); nothing to assert")
	}
	if len(res.Stats) >= 50 {
		t.Error("diverged run should stop early")
	}
	for _, s := range res.Stats {
		if s.TrainLoss != s.TrainLoss { // NaN check
			t.Error("recorded stats contain NaN")
		}
	}
}

func TestRunGATModel(t *testing.T) {
	d := tinyDataset(t, "ZINC")
	opts := tinyOpts(models.EngineMega)
	opts.Model = "GAT"
	res, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[len(res.Stats)-1].TrainLoss >= res.Stats[0].TrainLoss {
		t.Error("GAT loss did not decrease")
	}
}

func TestEvaluateExported(t *testing.T) {
	d := tinyDataset(t, "ZINC")
	ctx, err := models.NewDGLContext(d.Val, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	m := models.NewGatedGCN(models.Config{
		Dim: 16, Layers: 1, NodeTypes: d.NumNodeTypes, EdgeTypes: d.NumEdgeTypes, OutDim: 1, Seed: 1,
	})
	loss, metric := Evaluate(d.Task, m, []*models.Context{ctx})
	if loss <= 0 || metric <= 0 {
		t.Errorf("Evaluate returned loss %v metric %v", loss, metric)
	}
	if l2, _ := Evaluate(d.Task, m, nil); l2 != 0 {
		t.Errorf("empty context list should evaluate to 0, got %v", l2)
	}
}
