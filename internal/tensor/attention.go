package tensor

import (
	"fmt"
	"math"

	"mega/internal/compute"
)

// Fused banded attention. The staged pipeline materialises five pair-major
// intermediates per head per layer (gathered q/k/v/e rows, scores, exps,
// alphas, weighted values); this file computes the same arithmetic —
// bit-identically — in one sweep of the pair list, segment by segment. The
// forward is written once, generic over float32|float64 and over the
// operand layout; the float64 entry point wraps it as a custom autograd
// node that keeps only an [R,heads] max/denominator pair between forward
// and backward and recomputes scores and alphas per segment instead of
// storing them. The float32 entry point is in attention32.go.
//
// Bit-exactness contract: every multi-term accumulation below replicates
// the staged ops' accumulation order (ascending global pair index within
// each segment, the order ScatterAddRows/GatherRows-backward use) and
// their exact multiplication groupings. Parallel sweeps split over
// segment owners — each output row is written by exactly one chunk — so
// results are identical at any thread count, like every kernel in this
// package.

// Segments groups pair indices by an int32 key (receiver row, sender row,
// or edge ID) as a CSR: pairs of key k are Order[Start[k]:Start[k+1]],
// in ascending pair order. Built once per context via a stable counting
// sort and reused across layers and steps.
type Segments struct {
	Order []int32
	Start []int32
}

// BuildSegments groups pair indices 0..len(keys)-1 by keys[p] into
// numKeys segments, preserving ascending pair order within each segment.
func BuildSegments(keys []int32, numKeys int) *Segments {
	for _, k := range keys {
		if k < 0 || int(k) >= numKeys {
			panic(fmt.Sprintf("tensor: segment key %d out of %d", k, numKeys))
		}
	}
	start := make([]int32, numKeys+1)
	for _, k := range keys {
		start[k+1]++
	}
	for i := 0; i < numKeys; i++ {
		start[i+1] += start[i]
	}
	order := make([]int32, len(keys))
	next := make([]int32, numKeys)
	copy(next, start[:numKeys])
	for p, k := range keys {
		order[next[k]] = int32(p)
		next[k]++
	}
	return &Segments{Order: order, Start: start}
}

// Len returns the number of pairs in segment k.
func (s *Segments) Len(k int) int { return int(s.Start[k+1] - s.Start[k]) }

// float is the element set the fused attention forwards are written over.
type float interface{ float32 | float64 }

// panels is the memory layout of a [n, heads·dk] attention operand: element
// (row i, head a, lane j) lives at a·panel + i·row + j. The layout is data
// to the one forward body, not a second code path.
type panels struct{ panel, row int }

// nodeMajor is the plain row-major [n, heads·dk] matrix.
func nodeMajor(heads, dk int) panels { return panels{panel: dk, row: heads * dk} }

// headMajor stores one contiguous [n, dk] panel per head, so a (receiver,
// head) segment sweep reads one dense stream instead of a dk-wide stripe
// of every d-wide sender row.
func headMajor(n, dk int) panels { return panels{panel: n * dk, row: dk} }

// checkPairs validates a fused attention call's pair list against its
// [rows, d] node operand. Validation is hoisted before any parallel
// region: a helper-goroutine panic cannot be recovered by the caller.
func checkPairs(op string, rows, d, heads int, recv, send []int32, byRecv *Segments) {
	if heads < 1 || d%heads != 0 {
		panic(fmt.Sprintf("tensor: %s %d cols with %d heads", op, d, heads))
	}
	if len(send) != len(recv) {
		panic(fmt.Sprintf("tensor: %s index lengths %d/%d", op, len(recv), len(send)))
	}
	if byRecv == nil || len(byRecv.Start) != rows+1 {
		panic(fmt.Sprintf("tensor: %s missing/mis-sized recv segments", op))
	}
	for p := range recv {
		if r := recv[p]; r < 0 || int(r) >= rows {
			panic(fmt.Sprintf("tensor: %s recv %d out of %d rows", op, r, rows))
		}
		if s := send[p]; s < 0 || int(s) >= rows {
			panic(fmt.Sprintf("tensor: %s send %d out of %d rows", op, s, rows))
		}
	}
}

// checkEdges validates the optional [numEdges, d] edge modulation of a
// segment attention call.
func checkEdges(op string, numEdges, ewCols, d int, edgeIdx []int32, byEdge *Segments) {
	if ewCols != d {
		panic(fmt.Sprintf("tensor: %s edge cols %d != %d", op, ewCols, d))
	}
	if byEdge == nil || len(byEdge.Start) != numEdges+1 {
		panic(fmt.Sprintf("tensor: %s missing/mis-sized edge segments", op))
	}
	for _, e := range edgeIdx {
		if e < 0 || int(e) >= numEdges {
			panic(fmt.Sprintf("tensor: %s edge %d out of %d", op, e, numEdges))
		}
	}
}

// segmentAttentionFwd is the one forward of fused scaled dot-product
// attention, for both precisions and both layouts: per pair p with
// receiver r=recv[p], sender s=send[p], edge e=edgeIdx[p],
//
//	score_p^a = ( q_r^a · (k_s^a ⊙ w_e^a) ) / √dk
//
// softmax-normalised per receiver (numerically stable via the per-segment
// max), aggregating alpha·v_s into att[r]; with ew non-nil, edgeOut gets
// the per-edge mean of k⊙w. q, k, v and att are laid out by node, ew by
// edge; att and the node-major edgeOut must arrive zeroed. The only
// per-type piece is axpy. It returns the [rows,heads] per-receiver max and
// softmax denominator (scratch borrowed from pool — the caller puts them
// back), which is all the float64 backward keeps.
func segmentAttentionFwd[T float](q, k, v, ew, att, edgeOut []T, node, edge panels,
	recv, send, edgeIdx []int32, byRecv, byEdge *Segments, rows, heads, dk int,
	axpy func(T, []T, []T), pool *bucketPool[T]) (maxBuf, denomBuf []T) {

	d := heads * dk
	P := len(recv)
	scale := T(1 / math.Sqrt(float64(dk)))

	// Scores, sBuf[a·P + p], pair-parallel: each entry is owned by one
	// chunk and the j-sum is a serial ascending register accumulation (the
	// RowSum∘Mul order of the staged path).
	sBuf := pool.get(P * heads)
	compute.ParallelGrain(P, workGrain(d), func(lo, hi int) {
		for a := 0; a < heads; a++ {
			qa, ka := q[a*node.panel:], k[a*node.panel:]
			var ewa []T
			if ew != nil {
				ewa = ew[a*edge.panel:]
			}
			sa := sBuf[a*P : (a+1)*P]
			for p := lo; p < hi; p++ {
				qr := qa[int(recv[p])*node.row:][:dk]
				ks := ka[int(send[p])*node.row:][:len(qr)]
				var sum T
				if ew != nil {
					we := ewa[int(edgeIdx[p])*edge.row:][:len(qr)]
					for j := range qr {
						sum += T(qr[j] * (ks[j] * we[j]))
					}
				} else {
					for j := range qr {
						sum += T(qr[j] * ks[j])
					}
				}
				sa[p] = sum * scale
			}
		}
	})

	// Softmax + aggregation, receiver-segment-parallel: each receiver row
	// of att (and its max/denom) is owned by one chunk, so results are
	// identical at any thread count. Within a segment pairs run in
	// ascending global order — the ScatterAddRows order.
	maxBuf = pool.get(rows * heads)
	denomBuf = pool.get(rows * heads)
	segGrain := workGrain(2 * d * (P/rows + 1))
	compute.ParallelGrain(rows, segGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			seg := byRecv.Order[byRecv.Start[r]:byRecv.Start[r+1]]
			if len(seg) == 0 {
				continue
			}
			for a := 0; a < heads; a++ {
				va := v[a*node.panel:]
				sa := sBuf[a*P : (a+1)*P]
				mx := T(math.Inf(-1))
				for _, p := range seg {
					if sv := sa[p]; sv > mx {
						mx = sv
					}
				}
				maxBuf[r*heads+a] = mx
				var denom T
				for _, p := range seg {
					ex := exp(sa[p] - mx)
					sa[p] = ex
					denom += ex
				}
				denomBuf[r*heads+a] = denom
				recip := 1 / (denom + 1e-9)
				o := a*node.panel + r*node.row
				orow := att[o : o+dk]
				for _, p := range seg {
					s := int(send[p]) * node.row
					axpy(sa[p]*recip, va[s:s+dk], orow)
				}
			}
		}
	})
	pool.put(sBuf)

	// Edge stream: per-edge mean of k⊙w, edge-segment-parallel. Sum in
	// ascending pair order, then one 1/count scale — SegmentMean's order.
	if ew != nil {
		compute.ParallelGrain(len(byEdge.Start)-1, segGrain, func(lo, hi int) {
			for e := lo; e < hi; e++ {
				seg := byEdge.Order[byEdge.Start[e]:byEdge.Start[e+1]]
				if len(seg) == 0 {
					continue
				}
				orow := edgeOut[e*d : (e+1)*d]
				for _, p := range seg {
					s := int(send[p]) * node.row
					for a := 0; a < heads; a++ {
						oa := orow[a*dk : (a+1)*dk]
						ka := k[a*node.panel+s:][:len(oa)]
						ewa := ew[a*edge.panel+e*edge.row:][:len(oa)]
						for j := range oa {
							oa[j] += T(ka[j] * ewa[j])
						}
					}
				}
				inv := 1 / T(len(seg))
				for j := range orow {
					orow[j] *= inv
				}
			}
		})
	}
	return maxBuf, denomBuf
}

// exp evaluates the exponential in float64 and rounds once to T — Go has
// no float32 stdlib exp, and one correctly-rounded evaluation keeps the
// float32 softmax the tightest that precision can represent.
func exp[T float](x T) T { return T(math.Exp(float64(x))) }

// FusedSegmentAttention is the float64, differentiable entry point of
// segmentAttentionFwd: the forward above over node-major operands, plus a
// single hand-written backward that recomputes scores and alphas per
// segment from the saved [R,heads] max/denominator. When ew is non-nil it
// also returns the per-edge mean of k⊙w (the GT edge stream input), whose
// gradient, if any, is folded into that backward; when ew is nil the keys
// are unmodulated and edgeOut is nil.
//
// q, k, v are node-major [R,d]; ew is [numEdges,d] or nil. byRecv/bySend
// must group pair indices by recv/send; byEdge (required iff ew != nil)
// groups by edgeIdx. arena (optional) pools the scratch buffers.
func FusedSegmentAttention(q, k, v, ew *Tensor, recv, send, edgeIdx []int32,
	byRecv, bySend, byEdge *Segments, heads int, arena *Arena) (att, edgeOut *Tensor) {

	rows, d := q.rows, q.cols
	assertSameShape("fusedattn q/k", q, k)
	assertSameShape("fusedattn q/v", q, v)
	checkPairs("fusedattn", rows, d, heads, recv, send, byRecv)
	if bySend == nil || len(bySend.Start) != rows+1 {
		panic("tensor: fusedattn missing/mis-sized send segments")
	}
	if len(edgeIdx) != len(recv) {
		panic(fmt.Sprintf("tensor: fusedattn index lengths %d/%d", len(recv), len(edgeIdx)))
	}

	// Parent order mirrors the staged graph's DFS order (value chain
	// first, then query, key, edge modulation) so the reverse-topological
	// backward visits every upstream node in exactly the staged order —
	// gradient accumulation into shared ancestors (e.g. the layer input
	// h feeding all three projections) is order-sensitive.
	parents := []*Tensor{v, q, k}
	if ew != nil {
		parents = append(parents, ew)
	}
	att = newResult(rows, d, parents...)
	var ewData, edgeData []float64
	if ew != nil {
		checkEdges("fusedattn", ew.rows, ew.cols, d, edgeIdx, byEdge)
		edgeOut = newResult(ew.rows, d, att)
		edgeOut.backFn = func() {} // gradient consumed by att's backward
		ewData, edgeData = ew.Data, edgeOut.Data
	}

	dk := d / heads
	layout := nodeMajor(heads, dk)
	maxBuf, denomBuf := segmentAttentionFwd(q.Data, k.Data, v.Data, ewData, att.Data, edgeData,
		layout, layout, recv, send, edgeIdx, byRecv, byEdge, rows, heads, dk,
		axpy[float64], arena.pool64())

	if !att.requiresGrad {
		arena.Put(maxBuf)
		arena.Put(denomBuf)
		return att, edgeOut
	}

	scale := 1 / math.Sqrt(float64(dk))
	att.backFn = func() {
		fusedAttentionBackward(q, k, v, ew, att, edgeOut, recv, send, edgeIdx,
			byRecv, bySend, byEdge, heads, dk, scale, maxBuf, denomBuf, arena)
		arena.Put(maxBuf)
		arena.Put(denomBuf)
	}
	return att, edgeOut
}

// fusedAttentionBackward recomputes per-segment exps/alphas from the saved
// [R,heads] max/denominator and accumulates gradients into the node-major
// inputs, replicating the staged chain's accumulation orders exactly:
// receiver-segment sweeps for dQ (gather-backward order over recv),
// sender-segment sweeps for dK/dV, edge-segment sweeps for dW.
func fusedAttentionBackward(q, k, v, ew, att, edgeOut *Tensor,
	recv, send, edgeIdx []int32, byRecv, bySend, byEdge *Segments,
	heads, dk int, scale float64, maxBuf, denomBuf []float64, arena *Arena) {

	if att.Grad == nil {
		return
	}
	d := q.cols
	rows := q.rows
	P := len(recv)
	dAtt := att.Grad
	var dEdge []float64 // nil when the edge output is unused (last layer)
	if edgeOut != nil {
		dEdge = edgeOut.Grad
	}

	// Pass 0, pair-parallel: recompute ex_p^a = exp(score-max) and the
	// alpha-gradient g_p^a = Σ_j dAtt[r]·v_s (MulColVec's c-grad order).
	exBuf := arena.Get(P * heads)
	gBuf := arena.Get(P * heads)
	pairGrain := workGrain(d)
	compute.ParallelGrain(P, pairGrain, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			r, s := int(recv[p]), int(send[p])*d
			var eOff int
			if ew != nil {
				eOff = int(edgeIdx[p]) * d
			}
			for a := 0; a < heads; a++ {
				base := a * dk
				sum := 0.0
				if ew != nil {
					for j := base; j < base+dk; j++ {
						sum += float64(q.Data[r*d+j] * (k.Data[s+j] * ew.Data[eOff+j]))
					}
				} else {
					for j := base; j < base+dk; j++ {
						sum += float64(q.Data[r*d+j] * k.Data[s+j])
					}
				}
				exBuf[p*heads+a] = math.Exp(float64(sum*scale) - maxBuf[r*heads+a])
				g := 0.0
				for j := base; j < base+dk; j++ {
					g += float64(dAtt[r*d+j] * v.Data[s+j])
				}
				gBuf[p*heads+a] = g
			}
		}
	})

	// Pass 1, receiver-segment-parallel: denominator gradient, then the
	// score gradient (overwriting gBuf with d(q·k̂)) and dQ. Orders match
	// the staged chain: the denom sum and the dQ accumulation both run in
	// ascending pair order within the segment.
	if q.requiresGrad {
		q.ensureGrad()
	}
	segGrain := workGrain(2 * d * (P/rows + 1))
	compute.ParallelGrain(rows, segGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			seg := byRecv.Order[byRecv.Start[r]:byRecv.Start[r+1]]
			if len(seg) == 0 {
				continue
			}
			for a := 0; a < heads; a++ {
				recip := 1 / (denomBuf[r*heads+a] + 1e-9)
				dDenom := 0.0
				for _, p := range seg {
					rg := gBuf[int(p)*heads+a] * exBuf[int(p)*heads+a]
					dDenom += float64(rg * ((-recip) * recip))
				}
				base := a * dk
				for _, p := range seg {
					pi := int(p)
					exg := float64(gBuf[pi*heads+a]*recip) + dDenom
					rdg := (exg * exBuf[pi*heads+a]) * scale
					gBuf[pi*heads+a] = rdg
					if q.Grad != nil {
						s := int(send[pi]) * d
						var eOff int
						if ew != nil {
							eOff = int(edgeIdx[pi]) * d
						}
						for j := base; j < base+dk; j++ {
							if ew != nil {
								q.Grad[r*d+j] += float64(rdg * (k.Data[s+j] * ew.Data[eOff+j]))
							} else {
								q.Grad[r*d+j] += float64(rdg * k.Data[s+j])
							}
						}
					}
				}
			}
		}
	})

	// Pass 2, sender-segment-parallel: dV (alpha-weighted output grads)
	// and dK (score grads plus the edge-mean term), ascending pair order
	// within each sender segment — the gather-backward order over send.
	if k.requiresGrad || v.requiresGrad {
		k.ensureGrad()
		v.ensureGrad()
		compute.ParallelGrain(rows, segGrain, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				seg := bySend.Order[bySend.Start[s]:bySend.Start[s+1]]
				for _, p := range seg {
					pi := int(p)
					r := int(recv[pi])
					var eOff int
					var einv float64
					if ew != nil {
						e := int(edgeIdx[pi])
						eOff = e * d
						if dEdge != nil {
							einv = 1 / float64(byEdge.Len(e))
						}
					}
					for a := 0; a < heads; a++ {
						alpha := exBuf[pi*heads+a] * (1 / (denomBuf[r*heads+a] + 1e-9))
						rdg := gBuf[pi*heads+a]
						base := a * dk
						for j := base; j < base+dk; j++ {
							v.Grad[s*d+j] += float64(dAtt[r*d+j] * alpha)
							km := float64(rdg * q.Data[r*d+j])
							if dEdge != nil {
								km += float64(dEdge[eOff+j] * einv)
							}
							if ew != nil {
								k.Grad[s*d+j] += float64(km * ew.Data[eOff+j])
							} else {
								k.Grad[s*d+j] += km
							}
						}
					}
				}
			}
		})
	}

	// Pass 3, edge-segment-parallel: dW, ascending pair order within each
	// edge segment — the gather-backward order over edgeIdx.
	if ew != nil && ew.requiresGrad {
		ew.ensureGrad()
		compute.ParallelGrain(ew.rows, segGrain, func(lo, hi int) {
			for e := lo; e < hi; e++ {
				seg := byEdge.Order[byEdge.Start[e]:byEdge.Start[e+1]]
				if len(seg) == 0 {
					continue
				}
				var einv float64
				if dEdge != nil {
					einv = 1 / float64(len(seg))
				}
				eOff := e * d
				for _, p := range seg {
					pi := int(p)
					r, s := int(recv[pi])*d, int(send[pi])*d
					for a := 0; a < heads; a++ {
						rdg := gBuf[pi*heads+a]
						base := a * dk
						for j := base; j < base+dk; j++ {
							km := float64(rdg * q.Data[r+j])
							if dEdge != nil {
								km += float64(dEdge[eOff+j] * einv)
							}
							ew.Grad[eOff+j] += float64(km * k.Data[s+j])
						}
					}
				}
			}
		})
	}

	arena.Put(exBuf)
	arena.Put(gBuf)
}
