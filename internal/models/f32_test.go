package models

import (
	"testing"

	"mega/internal/datasets"
	"mega/internal/tensor"
)

// f32Envelope is the per-output divergence bound for whole-model forwards:
// several attention layers of f32 arithmetic against the f64 reference.
// Values chosen with ~8x headroom over observed worst cases so the test
// catches algorithmic drift (wrong accumulation order, a dropped scale)
// rather than natural rounding jitter.
const (
	f32MaxULP    = 1 << 14
	f32MaxRelErr = 5e-3
	f32RelFloor  = 1e-2
)

func TestPrepareF32RejectsBatchDependentModel(t *testing.T) {
	if _, err := PrepareF32(NewGatedGCN(smallConfig())); err == nil {
		t.Fatal("GatedGCN has no float32 forward; PrepareF32 must reject it")
	}
	if _, err := PrepareF32(NewGT(smallConfig())); err != nil {
		t.Fatalf("GT: %v", err)
	}
	if _, err := PrepareF32(NewGAT(smallConfig())); err != nil {
		t.Fatalf("GAT: %v", err)
	}
}

func TestPrepareF32Deterministic(t *testing.T) {
	m := NewGT(smallConfig())
	a, err := PrepareF32(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrepareF32(m)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.SnapshotParams(), b.SnapshotParams()
	if len(pa) == 0 || len(pa) != len(pb) {
		t.Fatalf("snapshot lengths %d/%d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("downcast not deterministic at %d: %v vs %v", i, pa[i], pb[i])
		}
	}
}

// forwardPair runs the same context through the f64 model and its frozen
// float32 instance and returns the measured divergence.
func forwardPair(t *testing.T, m Model, ctx *Context) tensor.Divergence {
	t.Helper()
	ref := m.Forward(ctx)
	arena := tensor.NewArena()
	f32m, err := PrepareF32(m)
	if err != nil {
		t.Fatal(err)
	}
	got := f32m.Forward(ctx, arena)
	if got.Rows() != ref.Rows() || got.Cols() != ref.Cols() {
		t.Fatalf("f32 output %dx%d, f64 %dx%d", got.Rows(), got.Cols(), ref.Rows(), ref.Cols())
	}
	d := tensor.MeasureDivergence(got.Data, ref.Data, f32RelFloor)
	arena.PutF32(got)
	if s := arena.Stats(); s.F32.InUseBytes != 0 {
		t.Errorf("f32 forward leaked %d arena bytes", s.F32.InUseBytes)
	}
	if err := d.Within(f32MaxULP, f32MaxRelErr); err != nil {
		t.Errorf("%v (%+v)", err, d)
	}
	return d
}

func TestGTF32MatchesF64(t *testing.T) {
	insts := testInstances(t, 6)
	ctx, err := NewMegaContext(insts, MegaOptions{}, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	d := forwardPair(t, NewGT(smallConfig()), ctx)
	t.Logf("GT divergence: %+v", d)
}

func TestGATF32MatchesF64(t *testing.T) {
	insts := testInstances(t, 6)
	ctx, err := NewMegaContext(insts, MegaOptions{}, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	d := forwardPair(t, NewGAT(smallConfig()), ctx)
	t.Logf("GAT divergence: %+v", d)
}

// TestF32MatchesF64OnDGLContext runs both float32 forwards on a DGL-engine
// context, whose rows are unique: the identity sync and the readout's
// plain per-graph pooling, which no MEGA context reaches.
func TestF32MatchesF64OnDGLContext(t *testing.T) {
	ctx, err := NewDGLContext(testInstances(t, 6), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{NewGT(smallConfig()), NewGAT(smallConfig())} {
		t.Run(m.Name(), func(t *testing.T) {
			d := forwardPair(t, m, ctx)
			t.Logf("%s/DGL divergence: %+v", m.Name(), d)
		})
	}
}

func TestGTF32MatchesF64Classification(t *testing.T) {
	d := datasets.CSL(datasets.Config{TrainSize: 6, ValSize: 0, TestSize: 0, Seed: 3})
	ctx, err := NewMegaContext(d.Train, MegaOptions{}, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.NodeTypes = d.NumNodeTypes
	cfg.EdgeTypes = d.NumEdgeTypes
	cfg.OutDim = d.NumClasses
	div := forwardPair(t, NewGT(cfg), ctx)
	t.Logf("GT/CSL divergence: %+v", div)
}

func TestGTF32SingleGraphSharedPlan(t *testing.T) {
	// Serving shape: one cached PreparedRep reused across contexts. The
	// single-graph fast path aliases the plan's index arrays; two builds
	// must produce identical contexts and identical f32 outputs.
	insts := testInstances(t, 1)
	rep, err := PrepareMega(insts[0].G, MegaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, err := NewMegaContextFromReps(insts, []*PreparedRep{rep}, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, err := NewMegaContextFromReps(insts, []*PreparedRep{rep}, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if &ctx1.RecvIdx[0] != &ctx2.RecvIdx[0] {
		t.Error("single-graph contexts should share the cached plan's index arrays")
	}
	m, err := PrepareF32(NewGT(smallConfig()))
	if err != nil {
		t.Fatal(err)
	}
	arena := tensor.NewArena()
	a := m.Forward(ctx1, arena)
	b := m.Forward(ctx2, arena)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("plan reuse changed output at %d", i)
		}
	}
}
