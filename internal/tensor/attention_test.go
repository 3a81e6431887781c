package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mega/internal/compute"
)

// Fixture graph for the fused-attention tests: 5 nodes, 7 directed pairs,
// 4 edges (pairs 5 and 6 share edge 3, modelling MEGA's duplicated
// undirected edges). Node 3 receives nothing — its attention row must
// stay zero — and node 2 sends nothing.
var (
	attnRecv = []int32{0, 0, 1, 2, 2, 2, 4}
	attnSend = []int32{1, 3, 0, 1, 3, 4, 0}
	attnEdge = []int32{0, 1, 0, 2, 1, 3, 3}
)

func attnSegments() (byRecv, bySend, byEdge *Segments) {
	return BuildSegments(attnRecv, 5), BuildSegments(attnSend, 5), BuildSegments(attnEdge, 4)
}

func TestBuildSegments(t *testing.T) {
	seg := BuildSegments(attnRecv, 5)
	wantStart := []int32{0, 2, 3, 6, 6, 7}
	if len(seg.Start) != len(wantStart) {
		t.Fatalf("Start length %d, want %d", len(seg.Start), len(wantStart))
	}
	for i, w := range wantStart {
		if seg.Start[i] != w {
			t.Fatalf("Start[%d] = %d, want %d", i, seg.Start[i], w)
		}
	}
	// The sort must be stable: within each segment, pair indices ascend,
	// so a serial sweep over a segment reproduces the staged ops' global
	// ascending-pair accumulation order bit for bit.
	for k := 0; k < 5; k++ {
		for i := int(seg.Start[k]) + 1; i < int(seg.Start[k+1]); i++ {
			if seg.Order[i-1] >= seg.Order[i] {
				t.Fatalf("segment %d not ascending: Order[%d]=%d, Order[%d]=%d",
					k, i-1, seg.Order[i-1], i, seg.Order[i])
			}
		}
		if got := seg.Len(k); got != int(seg.Start[k+1]-seg.Start[k]) {
			t.Fatalf("Len(%d) = %d", k, got)
		}
	}
	for i, p := range seg.Order {
		if attnRecv[p] != func() int32 {
			for k := 0; k < 5; k++ {
				if int32(i) >= seg.Start[k] && int32(i) < seg.Start[k+1] {
					return int32(k)
				}
			}
			return -1
		}() {
			t.Fatalf("Order[%d]=%d landed in the wrong segment", i, p)
		}
	}
}

// TestFusedAttentionGradients central-difference-checks the hand-written
// backward passes. The models-package tests pin bit-exact equality against
// the staged pipeline; these pin that the shared chain is itself correct
// calculus, independent of any reference implementation.
func TestFusedAttentionGradients(t *testing.T) {
	byRecv, bySend, byEdge := attnSegments()
	cases := []gradCase{
		{name: "FusedSegmentAttention", tol: 1e-5,
			inputs: []*Tensor{randT(60, 5, 4), randT(61, 5, 4), randT(62, 5, 4), randT(63, 4, 4)},
			build: func(ins []*Tensor) *Tensor {
				att, edgeOut := FusedSegmentAttention(ins[0], ins[1], ins[2], ins[3],
					attnRecv, attnSend, attnEdge, byRecv, bySend, byEdge, 2, nil)
				// Tap both outputs so the edge-stream gradient folds into
				// the shared backward, as it does inside the GT layer.
				return Add(weightedSum(att), weightedSum(edgeOut))
			}},
		{name: "FusedSegmentAttention/noEdge", tol: 1e-5,
			inputs: []*Tensor{randT(64, 5, 4), randT(65, 5, 4), randT(66, 5, 4)},
			build: func(ins []*Tensor) *Tensor {
				att, _ := FusedSegmentAttention(ins[0], ins[1], ins[2], nil,
					attnRecv, attnSend, attnEdge, byRecv, bySend, nil, 2, nil)
				return weightedSum(att)
			}},
		{name: "FusedSegmentAttention/deadEdgeBranch", tol: 1e-5,
			// edgeOut is discarded (the GT's last layer drops its edge
			// stream); its nil gradient must read as zero, not crash.
			inputs: []*Tensor{randT(67, 5, 4), randT(68, 5, 4), randT(69, 5, 4), randT(70, 4, 4)},
			build: func(ins []*Tensor) *Tensor {
				att, _ := FusedSegmentAttention(ins[0], ins[1], ins[2], ins[3],
					attnRecv, attnSend, attnEdge, byRecv, bySend, byEdge, 2, nil)
				return weightedSum(att)
			}},
		{name: "FusedAdditiveAttention", tol: 1e-5,
			inputs: []*Tensor{randT(71, 5, 4), randT(72, 1, 4), randT(73, 1, 4)},
			build: func(ins []*Tensor) *Tensor {
				att := FusedAdditiveAttention(ins[0], ins[1], ins[2],
					attnRecv, attnSend, byRecv, bySend, 2, nil)
				return weightedSum(att)
			}},
		{name: "FusedAdditiveAttention/oneHead", tol: 1e-5,
			inputs: []*Tensor{randT(74, 5, 3), randT(75, 1, 3), randT(76, 1, 3)},
			build: func(ins []*Tensor) *Tensor {
				att := FusedAdditiveAttention(ins[0], ins[1], ins[2],
					attnRecv, attnSend, byRecv, bySend, 1, nil)
				return weightedSum(att)
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { checkGradients(t, tc) })
	}
}

// TestFusedAttentionEmptyReceiver pins the zero-degree convention: a node
// with no incoming pairs contributes a zero attention row (no NaNs from
// the empty softmax) and receives no gradient through the kernel.
func TestFusedAttentionEmptyReceiver(t *testing.T) {
	byRecv, bySend, byEdge := attnSegments()
	q := randT(80, 5, 4).RequireGrad()
	k := randT(81, 5, 4).RequireGrad()
	v := randT(82, 5, 4).RequireGrad()
	ew := randT(83, 4, 4).RequireGrad()
	att, edgeOut := FusedSegmentAttention(q, k, v, ew,
		attnRecv, attnSend, attnEdge, byRecv, bySend, byEdge, 2, nil)
	for j := 0; j < 4; j++ {
		if got := att.Data[3*4+j]; got != 0 {
			t.Fatalf("receiver 3 has no pairs but att[3,%d] = %v", j, got)
		}
	}
	Add(weightedSum(att), weightedSum(edgeOut)).Backward()
	for i := range att.Data {
		if att.Data[i] != att.Data[i] { // NaN check
			t.Fatalf("NaN in attention output at %d", i)
		}
	}
	for _, in := range []*Tensor{q, k, v, ew} {
		if in.Grad == nil {
			t.Fatal("input missing gradient")
		}
		for i, g := range in.Grad {
			if g != g {
				t.Fatalf("NaN gradient at %d", i)
			}
		}
	}
}

// Naive node-major references for the two generic forwards: serial, one
// head and one receiver at a time, no Segments, no panels, no micro-kernel
// — the float64 kernels' original loop, written over T. The forwards must
// reproduce them bit for bit at either precision, in either layout, at any
// thread count.

// pairsByReceiver lists each receiver's pair indices in ascending order.
func pairsByReceiver(recv []int32, rows int) [][]int {
	out := make([][]int, rows)
	for p, r := range recv {
		out[r] = append(out[r], p)
	}
	return out
}

func refSegmentAttention[T float](q, k, v, ew []T, rows, heads, dk, numEdges int,
	recv, send, edge []int32) (att, edgeOut []T) {

	d := heads * dk
	scale := T(1 / math.Sqrt(float64(dk)))
	att = make([]T, rows*d)
	score := make([]T, len(recv))
	for a := 0; a < heads; a++ {
		base := a * dk
		for p := range recv {
			r, s, e := int(recv[p])*d, int(send[p])*d, int(edge[p])*d
			var sum T
			for j := base; j < base+dk; j++ {
				if ew != nil {
					sum += q[r+j] * (k[s+j] * ew[e+j])
				} else {
					sum += q[r+j] * k[s+j]
				}
			}
			score[p] = sum * scale
		}
		for r, pairs := range pairsByReceiver(recv, rows) {
			if len(pairs) == 0 {
				continue
			}
			mx := T(math.Inf(-1))
			for _, p := range pairs {
				if score[p] > mx {
					mx = score[p]
				}
			}
			var denom T
			for _, p := range pairs {
				score[p] = T(math.Exp(float64(score[p] - mx)))
				denom += score[p]
			}
			recip := 1 / (denom + 1e-9)
			for _, p := range pairs {
				alpha, s := score[p]*recip, int(send[p])*d
				for j := base; j < base+dk; j++ {
					att[r*d+j] += alpha * v[s+j]
				}
			}
		}
	}
	if ew == nil {
		return att, nil
	}
	edgeOut = make([]T, numEdges*d)
	count := make([]int, numEdges)
	for p := range recv {
		e, s := int(edge[p]), int(send[p])*d
		count[e]++
		for j := 0; j < d; j++ {
			edgeOut[e*d+j] += k[s+j] * ew[e*d+j]
		}
	}
	for e, n := range count {
		if n == 0 {
			continue
		}
		inv := 1 / T(n)
		for j := 0; j < d; j++ {
			edgeOut[e*d+j] *= inv
		}
	}
	return att, edgeOut
}

func refAdditiveAttention[T float](wh, aL, aR []T, rows, heads, dk int, recv, send []int32) []T {
	d := heads * dk
	att := make([]T, rows*d)
	leaky := func(x T) T {
		relu := x
		if relu < 0 {
			relu = 0
		}
		return relu + (x-relu)*0.2
	}
	score := make([]T, len(recv))
	for a := 0; a < heads; a++ {
		base := a * dk
		half := func(i int, vec []T) T {
			var sum T
			for j := base; j < base+dk; j++ {
				sum += wh[i*d+j] * vec[j]
			}
			return sum
		}
		for p := range recv {
			score[p] = leaky(half(int(recv[p]), aL) + half(int(send[p]), aR))
		}
		for r, pairs := range pairsByReceiver(recv, rows) {
			if len(pairs) == 0 {
				continue
			}
			mx := T(math.Inf(-1))
			for _, p := range pairs {
				if score[p] > mx {
					mx = score[p]
				}
			}
			var denom T
			for _, p := range pairs {
				denom += T(math.Exp(float64(score[p] - mx)))
			}
			recip := 1 / (denom + 1e-9)
			for _, p := range pairs {
				alpha, s := T(math.Exp(float64(score[p]-mx)))*recip, int(send[p])*d
				for j := base; j < base+dk; j++ {
					att[r*d+j] += alpha * wh[s+j]
				}
			}
		}
	}
	return att
}

// sameBits reports the first index where got and want differ as bit
// patterns (so -0 vs +0 and NaN payloads count), or -1.
func sameBits[T float](got, want []T) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			return i
		}
	}
	return -1
}

// attnShape is one pair-list geometry of the forward table.
type attnShape struct {
	name                      string
	rows, heads, dk, numEdges int
	recv, send, edge          []int32
}

func attnShapes() []attnShape {
	rng := rand.New(rand.NewSource(29))
	band := func(name string, rows, heads, dk, numEdges, pairs int) attnShape {
		recv, send, edge := randomPairs(rng, rows, numEdges, pairs)
		return attnShape{name, rows, heads, dk, numEdges, recv, send, edge}
	}
	// Every receiver has exactly one pair, every edge exactly one pair.
	single := attnShape{name: "singlePair", rows: 24, heads: 2, dk: 16, numEdges: 24}
	for p := 0; p < single.rows; p++ {
		single.recv = append(single.recv, int32(p))
		single.send = append(single.send, int32((p+5)%single.rows))
		single.edge = append(single.edge, int32(p))
	}
	return []attnShape{
		// Above the parallel grains (pairs/512, rows/51 chunks at d=64), so
		// the thread axis genuinely splits the sweeps.
		band("band/dk16", 1024, 4, 16, 1536, 4096),
		band("band/dk1", 4096, 8, 1, 1024, 8192),
		// Two receivers and two edges carry every pair; the rest of both
		// segment lists are empty.
		{name: "emptySegments", rows: 12, heads: 4, dk: 16, numEdges: 9,
			recv: []int32{0, 5, 5, 0, 5}, send: []int32{3, 4, 11, 7, 5}, edge: []int32{2, 2, 7, 7, 2}},
		single,
	}
}

// TestFusedAttentionForwardMatchesReference is the one gate on the generic
// forwards: {segment, additive} × {float32 head-major + SSE axpy, float64
// node-major} × {edge modulation present, absent} × threads × pair-list
// geometries, each bit-identical to the naive reference above. A variant
// is a row of `variants`; a geometry is a row of attnShapes.
func TestFusedAttentionForwardMatchesReference(t *testing.T) {
	variants := []struct {
		name          string
		additive, f32 bool
		withEW        bool
	}{
		{name: "segment/f64/ew", withEW: true},
		{name: "segment/f64/noew"},
		{name: "segment/f32/ew", f32: true, withEW: true},
		{name: "segment/f32/noew", f32: true},
		{name: "additive/f64", additive: true},
		{name: "additive/f32", additive: true, f32: true},
	}
	arena := NewArena()
	for _, sh := range attnShapes() {
		rng := rand.New(rand.NewSource(31))
		d := sh.heads * sh.dk
		q64, q32 := randF32Pair(rng, sh.rows, d)
		k64, k32 := randF32Pair(rng, sh.rows, d)
		v64, v32 := randF32Pair(rng, sh.rows, d)
		w64, w32 := randF32Pair(rng, sh.numEdges, d)
		aL64, aL32 := randF32Pair(rng, 1, d)
		aR64, aR32 := randF32Pair(rng, 1, d)
		byRecv := BuildSegments(sh.recv, sh.rows)
		bySend := BuildSegments(sh.send, sh.rows)
		byEdge := BuildSegments(sh.edge, sh.numEdges)

		for _, vr := range variants {
			// The reference runs once per row; every thread count must hit it.
			var want32, wantE32 []float32
			var want64, wantE64 []float64
			switch {
			case vr.additive && vr.f32:
				want32 = refAdditiveAttention(q32.Data, aL32.Data, aR32.Data, sh.rows, sh.heads, sh.dk, sh.recv, sh.send)
			case vr.additive:
				want64 = refAdditiveAttention(q64.Data, aL64.Data, aR64.Data, sh.rows, sh.heads, sh.dk, sh.recv, sh.send)
			case vr.f32:
				var ew []float32
				if vr.withEW {
					ew = w32.Data
				}
				want32, wantE32 = refSegmentAttention(q32.Data, k32.Data, v32.Data, ew,
					sh.rows, sh.heads, sh.dk, sh.numEdges, sh.recv, sh.send, sh.edge)
			default:
				var ew []float64
				if vr.withEW {
					ew = w64.Data
				}
				want64, wantE64 = refSegmentAttention(q64.Data, k64.Data, v64.Data, ew,
					sh.rows, sh.heads, sh.dk, sh.numEdges, sh.recv, sh.send, sh.edge)
			}

			for _, threads := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/threads=%d", sh.name, vr.name, threads), func(t *testing.T) {
					prev := compute.SetMaxThreads(threads)
					defer compute.SetMaxThreads(prev)
					at, edgeAt := -1, -1
					switch {
					case vr.additive && vr.f32:
						got := FusedAdditiveAttention32(q32, aL32.Data, aR32.Data, sh.recv, sh.send, byRecv, sh.heads, arena)
						at = sameBits(got.Data, want32)
						arena.PutF32(got)
					case vr.additive:
						got := FusedAdditiveAttention(q64, aL64, aR64, sh.recv, sh.send, byRecv, bySend, sh.heads, arena)
						at = sameBits(got.Data, want64)
					case vr.f32:
						var ew *F32
						if vr.withEW {
							ew = w32
						}
						got, gotE := FusedSegmentAttention32(q32, k32, v32, ew, sh.recv, sh.send, sh.edge,
							byRecv, byEdge, sh.heads, LayoutHeadMajor, arena)
						at = sameBits(got.Data, want32)
						if (gotE != nil) != vr.withEW {
							t.Fatalf("edge output presence %v with ew %v", gotE != nil, vr.withEW)
						}
						if gotE != nil {
							edgeAt = sameBits(gotE.Data, wantE32)
						}
						arena.PutF32(got)
						arena.PutF32(gotE)
					default:
						var ew *Tensor
						if vr.withEW {
							ew = w64
						}
						got, gotE := FusedSegmentAttention(q64, k64, v64, ew, sh.recv, sh.send, sh.edge,
							byRecv, bySend, byEdge, sh.heads, arena)
						at = sameBits(got.Data, want64)
						if (gotE != nil) != vr.withEW {
							t.Fatalf("edge output presence %v with ew %v", gotE != nil, vr.withEW)
						}
						if gotE != nil {
							edgeAt = sameBits(gotE.Data, wantE64)
						}
					}
					if at >= 0 {
						t.Errorf("attention output differs from the reference at %d", at)
					}
					if edgeAt >= 0 {
						t.Errorf("edge output differs from the reference at %d", edgeAt)
					}
				})
			}
		}
	}
	if s := arena.Stats(); s.F32.InUseBytes != 0 || s.F64.InUseBytes != 0 {
		t.Errorf("forwards leaked arena scratch: %+v", s)
	}
}
