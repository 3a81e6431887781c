package models

import (
	"errors"
	"math"
	"testing"

	"mega/internal/tensor"
	"mega/internal/traverse"
)

// shardTestSetup builds a MEGA context plus a fresh GT over it. The small
// window keeps every chunk wider than ω at 8 µchunks.
func shardTestSetup(t *testing.T, nInst int) (*GT, *Context) {
	t.Helper()
	insts := testInstances(t, nInst)
	ctx, err := NewMegaContext(insts, MegaOptions{
		Traverse: traverse.Options{Window: 2},
	}, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	return NewGT(smallConfig()), ctx
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestShardForwardBitIdentical pins the engine's core contract: the sharded
// forward produces the model output bit for bit at every worker count.
func TestShardForwardBitIdentical(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	want := m.Forward(ctx)
	for _, k := range []int{1, 2, 4, 8} {
		eng, err := NewShardEngine(m, ctx, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got := eng.Forward()
		if !bitsEqual(got.Data, want.Data) {
			t.Errorf("k=%d: sharded output differs from single engine", k)
		}
	}
}

// TestShardBackwardBitIdentical pins the gradient contract: parameter
// gradients are bit-identical at every worker count. The engine always
// decomposes into the 8 canonical µchunks regardless of k, so every
// accumulation order is worker-count-invariant; the k=1 run is the
// reference. (Gradients legitimately differ from the monolithic single
// engine, whose one big tape accumulates in a different — equally valid —
// order; forward values are bit-identical to it, see above.)
func TestShardBackwardBitIdentical(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	params := m.Params()

	ref, err := NewShardEngine(m, ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := ref.Forward()
	tensor.MAELoss(out, ctx.Targets).Backward()
	ref.Backward()
	want := make([][]float64, len(params))
	for i, p := range params {
		if p.Grad != nil {
			want[i] = append([]float64(nil), p.Grad...)
		}
		p.Grad = nil
	}

	for _, k := range []int{2, 4, 8} {
		eng, err := NewShardEngine(m, ctx, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		sOut := eng.Forward()
		tensor.MAELoss(sOut, ctx.Targets).Backward()
		eng.Backward()
		for i, p := range params {
			switch {
			case want[i] == nil && p.Grad != nil:
				t.Fatalf("k=%d: param %d gained a gradient the single engine lacks", k, i)
			case want[i] != nil && p.Grad == nil:
				t.Fatalf("k=%d: param %d missing its gradient", k, i)
			case want[i] != nil && !bitsEqual(p.Grad, want[i]):
				t.Fatalf("k=%d: param %d gradient differs from single engine", k, i)
			}
			p.Grad = nil
		}
	}
}

// TestShardHaloTraffic pins the boundary exchange: 2(k-1) halo messages of
// ω·dim·8 bytes per layer, and zero inter-worker traffic at k=1.
func TestShardHaloTraffic(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	layers := len(m.layers)
	for _, k := range []int{1, 2, 4, 8} {
		eng, err := NewShardEngine(m, ctx, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		eng.Forward()
		st := eng.Stats()
		wantMsgs := int64(layers * 2 * (k - 1))
		if st.HaloMessages != wantMsgs {
			t.Errorf("k=%d: halo messages = %d, want %d", k, st.HaloMessages, wantMsgs)
		}
		omega := eng.plan.omega
		if wantBytes := wantMsgs * int64(omega*eng.plan.dim*8); st.HaloBytes != wantBytes {
			t.Errorf("k=%d: halo bytes = %d, want %d", k, st.HaloBytes, wantBytes)
		}
		if k == 1 && st.ForwardMessages() != 0 {
			t.Errorf("k=1: expected zero exchange traffic, got %d messages", st.ForwardMessages())
		}
		if st.CollectMessages != int64(k) {
			t.Errorf("k=%d: collect messages = %d, want %d", k, st.CollectMessages, k)
		}
	}
}

// TestShardEngineRejectsInvalid covers the planner's validation paths.
func TestShardEngineRejectsInvalid(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	for _, k := range []int{0, 3, 5, 16} {
		if _, err := NewShardEngine(m, ctx, k); err == nil {
			t.Errorf("k=%d: expected error", k)
		}
	}
	dglCtx, err := NewDGLContext(testInstances(t, 2), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardEngine(m, dglCtx, 2); err == nil {
		t.Error("expected error for non-MEGA context")
	}
}

// TestShardReusableAcrossSteps runs two optimisation-free steps through the
// same engine to confirm per-run state fully resets.
func TestShardReusableAcrossSteps(t *testing.T) {
	m, ctx := shardTestSetup(t, 4)
	eng, err := NewShardEngine(m, ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := eng.Forward()
	firstData := append([]float64(nil), first.Data...)
	tensor.MAELoss(first, ctx.Targets).Backward()
	eng.Backward()
	for _, p := range m.Params() {
		p.Grad = nil
	}
	second := eng.Forward()
	if !bitsEqual(second.Data, firstData) {
		t.Error("second forward over unchanged parameters differs from first")
	}
}

// TestErrUnshardableClassification pins which rejections are structural:
// train attributes a fallback to "unshardable" only for ErrUnshardable, so
// a bad worker count must not carry it.
func TestErrUnshardableClassification(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	if _, err := NewShardEngine(m, &Context{NumRows: 4}, 2); !errors.Is(err, ErrUnshardable) {
		t.Errorf("non-MEGA context: got %v, want ErrUnshardable", err)
	}
	if _, err := NewShardEngine(m, ctx, 3); err == nil {
		t.Error("expected error for k=3")
	} else if errors.Is(err, ErrUnshardable) {
		t.Error("worker-count mismatch must not be ErrUnshardable")
	}
}
