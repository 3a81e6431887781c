package models

import (
	"testing"

	"mega/internal/traverse"
)

// sparsifiedShardSetup mirrors shardTestSetup but preprocesses through the
// effective-resistance sparsifier, so the shard plan cuts a path built
// over sparsified topology.
func sparsifiedShardSetup(t *testing.T, nInst int, frac float64) (*GT, *Context) {
	t.Helper()
	insts := testInstances(t, nInst)
	ctx, err := NewMegaContext(insts, MegaOptions{
		Traverse: traverse.Options{Window: 2, SparsifyFraction: frac, SparsifySeed: 17},
	}, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	return NewGT(smallConfig()), ctx
}

// TestShardForwardBitIdenticalSparsified extends the engine's core
// contract to sparsified reps: at every worker count the sharded forward
// over a sparsified context matches the monolithic forward bit for bit.
func TestShardForwardBitIdenticalSparsified(t *testing.T) {
	for _, frac := range []float64{0.75, 0.5} {
		m, ctx := sparsifiedShardSetup(t, 6, frac)
		want := m.Forward(ctx)
		for _, k := range []int{1, 2, 3, 4, 5, 8} {
			eng, err := NewShardEngine(m, ctx, k)
			if err != nil {
				t.Fatalf("frac=%v k=%d: %v", frac, k, err)
			}
			got := eng.Forward()
			if !bitsEqual(got.Data, want.Data) {
				t.Errorf("frac=%v k=%d: sharded output differs from single engine", frac, k)
			}
		}
	}
}

// TestSparsifiedContextDeterministic pins bit-reproducibility of the full
// sparsified preprocessing: two contexts built under identical options
// produce bit-identical forwards.
func TestSparsifiedContextDeterministic(t *testing.T) {
	m, ctx1 := sparsifiedShardSetup(t, 4, 0.5)
	a := m.Forward(ctx1)
	_, ctx2 := sparsifiedShardSetup(t, 4, 0.5)
	b := m.Forward(ctx2)
	if !bitsEqual(a.Data, b.Data) {
		t.Fatal("sparsified preprocessing not bit-reproducible for a fixed seed")
	}
}
