package tensor

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// onTape reports whether s lies inside one of tp's chunks.
func onTape(tp *Tape, s []float64) bool {
	if len(s) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(&s[0]))
	for _, c := range tp.chunks {
		c = c[:cap(c)]
		lo := uintptr(unsafe.Pointer(&c[0]))
		if p >= lo && p < lo+uintptr(len(c))*8 {
			return true
		}
	}
	return false
}

func TestTapeGetZeroedAndCapClipped(t *testing.T) {
	tp := NewTape()
	a := tp.get(5)
	b := tp.get(3)
	if len(a) != 5 || cap(a) != 5 || len(b) != 3 || cap(b) != 3 {
		t.Fatalf("len/cap %d/%d and %d/%d, want 5/5 and 3/3", len(a), cap(a), len(b), cap(b))
	}
	for i := range a {
		a[i] = 1
	}
	a = append(a, 7) // must reallocate, not spill into b
	for _, v := range b {
		if v != 0 {
			t.Fatalf("append on one tape slice wrote into its neighbour: %v", b)
		}
	}
	if big := tp.get(tapeChunk + 1); onTape(tp, big) {
		t.Fatal("a request larger than a chunk landed on the tape")
	}
	if !onTape(tp, b) {
		t.Fatal("a small request missed the tape")
	}
	// A request that overflows the current chunk opens the next one.
	tp.get(tapeChunk - 7)
	if len(tp.chunks) != 2 {
		t.Fatalf("%d chunks, want 2", len(tp.chunks))
	}
	var nilTape *Tape
	if s := nilTape.get(4); len(s) != 4 {
		t.Fatal("nil tape get")
	}
	nilTape.Release()
}

// TestTapeReleaseRewindsWithoutClearing pins the tape's hand-out rules:
// Release only rewinds, get clears as it hands out, getRaw hands out what
// the tape last held, and under tapePoison that is NaN.
func TestTapeReleaseRewindsWithoutClearing(t *testing.T) {
	tp := NewTape()
	first := tp.get(16)
	for i := range first {
		first[i] = float64(i + 1)
	}
	tp.get(tapeChunk) // second chunk, filled to the brim
	tp.Release()
	for i, c := range tp.chunks {
		if len(c) != 0 {
			t.Fatalf("chunk %d keeps %d used elements after Release", i, len(c))
		}
	}
	raw := tp.getRaw(16)
	if &raw[0] != &first[0] {
		t.Fatal("Release did not rewind to the start of the first chunk")
	}
	for i, v := range raw {
		if v != float64(i+1) {
			t.Fatalf("getRaw element %d is %v after Release, want the stale %d", i, v, i+1)
		}
	}
	tp.Release()
	if s := tp.get(16); &s[0] != &first[0] || s[3] != 0 {
		t.Fatalf("get over the stale prefix returned %v, want 0", s[3])
	}
	if len(tp.chunks) != 2 {
		t.Fatalf("Release dropped chunks: %d left", len(tp.chunks))
	}

	tapePoison = true
	defer func() { tapePoison = false }()
	tp.Release()
	if !math.IsNaN(raw[3]) {
		t.Fatalf("poisoned Release left %v, want NaN", raw[3])
	}
	if s := tp.getRaw(16); !math.IsNaN(s[3]) {
		t.Fatalf("getRaw after a poisoned Release returned %v, want NaN", s[3])
	}
	if s := tp.get(16); s[3] != 0 {
		t.Fatalf("get after a poisoned Release returned %v, want 0", s[3])
	}
}

func TestTapeMixedParentsPanic(t *testing.T) {
	table := Randn(rand.New(rand.NewSource(1)), 4, 3, 1)
	x := NewTape().EmbedRows(table, []int32{0, 1})
	y := NewTape().EmbedRows(table, []int32{2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("Add of tensors on two tapes did not panic")
		}
	}()
	Add(x, y)
}

// TestTapeLeafGradOnHeap builds a small graph on a tape and runs its
// backward: every op result and non-leaf gradient is on the tape, every
// leaf (parameter) gradient is not, and the gradients match the same graph
// built on the heap.
func TestTapeLeafGradOnHeap(t *testing.T) {
	build := func(tp *Tape) (w, table *Tensor, mid []*Tensor) {
		rng := rand.New(rand.NewSource(3))
		table = Randn(rng, 5, 8, 1).RequireGrad()
		w = Randn(rng, 8, 8, 1).RequireGrad()
		gamma, beta := Full(1, 8, 1).RequireGrad(), Zeros(1, 8).RequireGrad()
		h := tp.EmbedRows(table, []int32{0, 2, 4, 2})
		z := LayerNorm(ReLU(MatMul(h, w)), gamma, beta)
		loss := MAELoss(SegmentMean(z, []int32{0, 0, 1, 1}, 2), Zeros(2, 8))
		loss.Backward()
		return w, table, []*Tensor{h, z, loss}
	}
	tp := NewTape()
	w, table, mid := build(tp)
	hw, htable, _ := build(nil)
	for _, leaf := range []*Tensor{w, table} {
		if leaf.tape != nil || onTape(tp, leaf.Grad) {
			t.Fatal("a leaf's gradient landed on the tape")
		}
	}
	for i, n := range mid {
		if n.tape != tp || !onTape(tp, n.Data) || !onTape(tp, n.Grad) {
			t.Fatalf("intermediate %d is not on the tape", i)
		}
	}
	for _, p := range [][2]*Tensor{{w, hw}, {table, htable}} {
		for i := range p[0].Grad {
			if math.Float64bits(p[0].Grad[i]) != math.Float64bits(p[1].Grad[i]) {
				t.Fatalf("tape gradient %v differs from heap gradient %v", p[0].Grad[i], p[1].Grad[i])
			}
		}
	}
}
