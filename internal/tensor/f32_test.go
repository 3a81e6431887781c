package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestULPDistance32(t *testing.T) {
	cases := []struct {
		a, b float32
		want int64
	}{
		{1.0, 1.0, 0},
		{0, float32(math.Copysign(0, -1)), 0},
		{1.0, math.Nextafter32(1.0, 2.0), 1},
		{1.0, math.Nextafter32(1.0, 0.0), 1},
		{-1.0, math.Nextafter32(-1.0, -2.0), 1},
		// Smallest positive and negative subnormals straddle zero: 2 apart.
		{math.Float32frombits(1), math.Float32frombits(0x8000_0001), 2},
	}
	for _, c := range cases {
		if got := ULPDistance32(c.a, c.b); got != c.want {
			t.Errorf("ULPDistance32(%g, %g) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if got := ULPDistance32(float32(math.NaN()), 1); got != math.MaxInt64 {
		t.Errorf("NaN distance = %d, want MaxInt64", got)
	}
	// Symmetry and monotone growth over a sweep.
	prev := int64(0)
	for i := 1; i <= 64; i++ {
		x := float32(1.0)
		y := x
		for j := 0; j < i; j++ {
			y = math.Nextafter32(y, 2)
		}
		d := ULPDistance32(x, y)
		if d != int64(i) || ULPDistance32(y, x) != d {
			t.Fatalf("sweep %d: distance %d", i, d)
		}
		if d <= prev {
			t.Fatalf("sweep %d: distance not increasing", i)
		}
		prev = d
	}
}

func TestMeasureDivergence(t *testing.T) {
	ref := []float64{1.0, -2.0, 1e-8, 0.5}
	got := make([]float32, len(ref))
	for i, v := range ref {
		got[i] = float32(v)
	}
	d := MeasureDivergence(got, ref, 1e-6)
	if d.MaxULP != 0 || d.Compared != len(ref) {
		t.Fatalf("exact downcast: %+v", d)
	}
	if err := d.Within(0, 1e-7); err != nil {
		t.Fatalf("exact downcast out of envelope: %v", err)
	}
	// Perturb one element by 3 ULP.
	got[1] = math.Nextafter32(math.Nextafter32(math.Nextafter32(got[1], -3), -3), -3)
	d = MeasureDivergence(got, ref, 1e-6)
	if d.MaxULP != 3 {
		t.Fatalf("perturbed: MaxULP = %d, want 3", d.MaxULP)
	}
	if d.MaxRelErr <= 0 || d.MaxAbsErr <= 0 {
		t.Fatalf("perturbed: %+v", d)
	}
	if err := d.Within(2, 1); err == nil {
		t.Fatal("Within(2, …) should reject a 3-ULP gap")
	}
	// Near-zero references stay out of the ULP statistic but feed rel/abs.
	tiny := MeasureDivergence([]float32{1e-7}, []float64{0}, 1e-6)
	if tiny.MaxULP != 0 {
		t.Fatalf("near-zero ref contaminated ULP: %+v", tiny)
	}
	if tiny.MaxRelErr < 0.09 {
		t.Fatalf("near-zero rel err floored wrong: %+v", tiny)
	}
	// A NaN answer fails the envelope whatever its reference's magnitude,
	// below the floor included.
	nan := float32(math.NaN())
	for _, r := range []float64{1e-9, 0, 1} {
		d := MeasureDivergence([]float32{nan}, []float64{r}, 1e-6)
		if d.MaxULP != math.MaxInt64 || !math.IsInf(d.MaxRelErr, 1) || d.Compared != 1 {
			t.Errorf("NaN vs %g: %+v", r, d)
		}
		if d.Within(4, 1e-5) == nil {
			t.Errorf("NaN vs %g passed Within", r)
		}
	}
}

// randF32Pair builds matched float64/float32 random matrices (the f32 is
// the exact downcast of the f64).
func randF32Pair(rng *rand.Rand, rows, cols int) (*Tensor, *F32) {
	t64 := Randn(rng, rows, cols, 1)
	return t64, Downcast(t64)
}

func TestKernels32MatchF64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	arena := NewArena()

	a64, a32 := randF32Pair(rng, 37, 65)
	b64, b32 := randF32Pair(rng, 65, 29)
	mm := MeasureDivergence(MatMul32(a32, b32, arena).Data, MatMul(a64, b64).Data, 1e-3)
	if err := mm.Within(4096, 1e-4); err != nil {
		t.Errorf("matmul32 diverged: %v (%+v)", err, mm)
	}

	// LayerNorm is a matmul epilogue; the identity product leaves a32 exact.
	g64 := Randn(rng, 1, 65, 1)
	be64 := Randn(rng, 1, 65, 1)
	eye := NewF32(65, 65, make([]float32, 65*65))
	for i := 0; i < 65; i++ {
		eye.Data[i*65+i] = 1
	}
	lnEp := Epilogue32{Gamma: Downcast(g64).Data, Beta: Downcast(be64).Data}
	ln := MeasureDivergence(
		MatMulEpilogue32(a32, eye, lnEp, arena).Data,
		LayerNorm(a64, g64, be64).Data, 1e-3)
	if err := ln.Within(4096, 1e-3); err != nil {
		t.Errorf("layernorm32 diverged: %v (%+v)", err, ln)
	}

	bn := MeasureDivergence(
		BatchNorm32(a32, Downcast(g64).Data, Downcast(be64).Data, arena).Data,
		BatchNorm(a64, g64, be64).Data, 1e-3)
	if err := bn.Within(4096, 1e-4); err != nil {
		t.Errorf("batchnorm32 diverged: %v (%+v)", err, bn)
	}

	seg := make([]int32, 37)
	for i := range seg {
		seg[i] = int32(rng.Intn(5))
	}
	sm := MeasureDivergence(
		SegmentMean32(a32, seg, 5, arena).Data,
		SegmentMean(a64, seg, 5).Data, 1e-3)
	if err := sm.Within(256, 1e-4); err != nil {
		t.Errorf("segmentmean32 diverged: %v (%+v)", err, sm)
	}

	idx := []int32{0, 5, 5, 36, 2}
	gr32 := GatherRows32(a32, idx, arena)
	gr64 := GatherRows(a64, idx)
	for i := range gr32.Data {
		if gr32.Data[i] != float32(gr64.Data[i]) {
			t.Fatalf("gather32 differs at %d", i)
		}
	}
}

// randomPairs builds a band-like pair list over rows with numEdges edges.
func randomPairs(rng *rand.Rand, rows, numEdges, pairs int) (recv, send, edge []int32) {
	recv = make([]int32, pairs)
	send = make([]int32, pairs)
	edge = make([]int32, pairs)
	for p := 0; p < pairs; p += 2 {
		lo := int32(rng.Intn(rows - 1))
		off := int32(1 + rng.Intn(3))
		hi := lo + off
		if int(hi) >= rows {
			hi = int32(rows - 1)
		}
		e := int32(rng.Intn(numEdges))
		recv[p], send[p], edge[p] = lo, hi, e
		if p+1 < pairs {
			recv[p+1], send[p+1], edge[p+1] = hi, lo, e
		}
	}
	return recv, send, edge
}

func TestFusedSegmentAttention32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	arena := NewArena()
	const rows, d, heads, E, P = 48, 32, 4, 40, 160

	q64, q32 := randF32Pair(rng, rows, d)
	k64, k32 := randF32Pair(rng, rows, d)
	v64, v32 := randF32Pair(rng, rows, d)
	w64, w32 := randF32Pair(rng, E, d)
	recv, send, edge := randomPairs(rng, rows, E, P)
	byRecv := BuildSegments(recv, rows)
	bySend := BuildSegments(send, rows)
	byEdge := BuildSegments(edge, E)

	att64, eo64 := FusedSegmentAttention(q64, k64, v64, w64, recv, send, edge,
		byRecv, bySend, byEdge, heads, nil)
	att32, eo32 := FusedSegmentAttention32(q32, k32, v32, w32, recv, send, edge,
		byRecv, byEdge, heads, LayoutHeadMajor, arena)
	da := MeasureDivergence(att32.Data, att64.Data, 1e-3)
	da.Merge(MeasureDivergence(eo32.Data, eo64.Data, 1e-3))
	if err := da.Within(2048, 1e-4); err != nil {
		t.Errorf("fused attention diverged: %v (%+v)", err, da)
	}
	arena.PutF32(att32)
	arena.PutF32(eo32)

	// Unmodulated variant (ew nil).
	attN64, _ := FusedSegmentAttention(q64, k64, v64, nil, recv, send, edge,
		byRecv, bySend, nil, heads, nil)
	attN32, eoN := FusedSegmentAttention32(q32, k32, v32, nil, recv, send, edge,
		byRecv, nil, heads, LayoutHeadMajor, arena)
	if eoN != nil {
		t.Fatal("nil ew must give nil edge output")
	}
	dn := MeasureDivergence(attN32.Data, attN64.Data, 1e-3)
	if err := dn.Within(2048, 1e-4); err != nil {
		t.Errorf("unmodulated fused attention diverged: %v (%+v)", err, dn)
	}
}

func TestFusedAdditiveAttention32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	arena := NewArena()
	const rows, d, heads, E, P = 40, 48, 4, 32, 128

	recv, send, _ := randomPairs(rng, rows, E, P)
	byRecv := BuildSegments(recv, rows)
	bySend := BuildSegments(send, rows)
	_, wh := randF32Pair(rng, rows, d)
	aL64 := Randn(rng, 1, d, 0.1)
	aR64 := Randn(rng, 1, d, 0.1)
	aL, aR := Downcast(aL64).Data, Downcast(aR64).Data
	got := FusedAdditiveAttention32(wh, aL, aR, recv, send, byRecv, heads, arena)

	// Rebuild the f64 attention vectors from the rounded f32 values so the
	// reference sees exactly the weights the f32 kernel saw.
	for i, x := range aL {
		aL64.Data[i] = float64(x)
	}
	for i, x := range aR {
		aR64.Data[i] = float64(x)
	}
	ref := FusedAdditiveAttention(wh.Upcast(), aL64, aR64, recv, send, byRecv, bySend, heads, nil)
	dg := MeasureDivergence(got.Data, ref.Data, 1e-3)
	if err := dg.Within(2048, 1e-4); err != nil {
		t.Errorf("gat f32 diverged from f64: %v (%+v)", err, dg)
	}
}

func TestArenaStats(t *testing.T) {
	a := NewArena()
	b1 := a.Get(100)
	b2 := a.Get(100)
	a.Put(b1)
	b3 := a.Get(100) // hit
	s := a.Stats()
	if s.F64.Borrows != 3 || s.F64.BucketHits != 1 || s.F64.BucketMisses != 2 {
		t.Fatalf("f64 counters: %+v", s.F64)
	}
	if s.F64.InUseBytes != 1600 || s.F64.PeakBytes != 1600 {
		t.Fatalf("f64 bytes: %+v", s.F64)
	}
	a.Put(b2)
	a.Put(b3)
	if s := a.Stats(); s.F64.InUseBytes != 0 || s.F64.PeakBytes != 1600 {
		t.Fatalf("after release: %+v", s.F64)
	}

	c1 := a.Get32(64)
	a.Put32(c1)
	c2 := a.Get32(64)
	s = a.Stats()
	if s.F32.Borrows != 2 || s.F32.BucketHits != 1 || s.F32.BucketMisses != 1 {
		t.Fatalf("f32 counters: %+v", s.F32)
	}
	if s.F32.InUseBytes != 256 || s.F32.PeakBytes != 256 {
		t.Fatalf("f32 bytes: %+v", s.F32)
	}
	a.Put32(c2)

	// nil arena: degrade to make, no stats, no panic.
	var nilA *Arena
	_ = nilA.Get32(8)
	nilA.Put32(make([]float32, 8))
	if got := nilA.Stats(); got != (ArenaStats{}) {
		t.Fatalf("nil arena stats: %+v", got)
	}

	// GetF32/PutF32 round-trip through the pool.
	m := a.GetF32(4, 8)
	if m.Rows() != 4 || m.Cols() != 8 || len(m.Data) != 32 {
		t.Fatalf("GetF32 shape: %dx%d", m.Rows(), m.Cols())
	}
	a.PutF32(m)
	if m.Data != nil {
		t.Fatal("PutF32 must nil the payload")
	}
	a.PutF32(nil) // no-op
}
