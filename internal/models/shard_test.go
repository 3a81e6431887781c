package models

import (
	"math"
	"testing"

	"mega/internal/traverse"
)

// shardTestSetup builds a MEGA context plus a fresh GT over it. The small
// window keeps every chunk at least ω rows long at up to 8 workers.
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
// forward produces the model output bit for bit at every worker count,
// divisor of the path length or not.
func TestShardForwardBitIdentical(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	want := m.Forward(ctx)
	for _, k := range []int{1, 2, 3, 4, 5, 8} {
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

// TestShardHaloTraffic pins the boundary exchange: 2(k-1) halo messages of
// ω·dim·8 bytes per layer, and zero inter-worker traffic at k=1.
func TestShardHaloTraffic(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	layers := len(m.layers)
	for _, k := range []int{1, 2, 3, 4, 5, 8} {
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

// TestShardEngineRejectsInvalid covers the planner's validation paths: no
// workers, a chunk shorter than the window ω (the shortest is ⌊L/k⌋ rows;
// one row each at k = L), and a context that is not MEGA's.
func TestShardEngineRejectsInvalid(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	omega := ctx.maxWindow
	if omega < 2 {
		t.Fatalf("window %d: a one-row chunk would be valid", omega)
	}
	for _, k := range []int{0, ctx.NumRows/omega + 1, ctx.NumRows} {
		if _, err := NewShardEngine(m, ctx, k); err == nil {
			t.Errorf("k=%d: expected error", k)
		}
	}
	if _, err := NewShardEngine(m, ctx, ctx.NumRows/omega); err != nil {
		t.Errorf("k=%d: every chunk holds at least ω=%d rows, got %v", ctx.NumRows/omega, omega, err)
	}
	dglCtx, err := NewDGLContext(testInstances(t, 2), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardEngine(m, dglCtx, 2); err == nil {
		t.Error("expected error for non-MEGA context")
	}
}

// TestShardReusableAcrossSteps runs two forwards through the same engine to
// confirm per-run state fully resets: same output, same traffic.
func TestShardReusableAcrossSteps(t *testing.T) {
	m, ctx := shardTestSetup(t, 4)
	eng, err := NewShardEngine(m, ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]float64(nil), eng.Forward().Data...)
	firstStats := eng.Stats()
	second := eng.Forward()
	if !bitsEqual(second.Data, first) {
		t.Error("second forward over unchanged parameters differs from first")
	}
	if st := eng.Stats(); st != firstStats {
		t.Errorf("second forward's traffic %+v, first %+v", st, firstStats)
	}
}
