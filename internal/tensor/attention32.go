package tensor

import (
	"fmt"

	"mega/internal/compute"
)

// Float32 forward-only entry points of the fused attention kernels. They
// run the same generic forwards as the float64 ones (attention.go,
// attention_gat.go) with two differences: the aggregation micro-kernel is
// saxpy32 (SSE on amd64), and the operands are repacked head-major first.
//
// A per-(receiver, head) segment sweep over node-major [R,d] rows touches
// one dk-wide stripe of each sender row, so consecutive senders are d
// elements apart — with 4 heads, 3/4 of every fetched float32 cache line
// is for other heads. Head-major panels — element (row r, head a, lane j)
// at a·(R·dk) + r·dk + j — turn each sweep into one contiguous ~len·dk
// stream per head: band-graph senders are near-consecutive positions, so
// the stream is dense. Only addresses differ from a node-major walk, not
// the per-element accumulation order, so outputs are bit-identical to it
// (pinned by TestFusedAttentionForwardMatchesReference). Across precisions
// the contract is the divergence envelope, not bit-identity.

// AttnLayout names the scratch memory layout of the f32 attention kernel.
// Head-major is the only layout; the type survives because callers name
// it.
type AttnLayout int

// LayoutHeadMajor streams each (receiver, head) segment sweep over
// contiguous per-head panels.
const LayoutHeadMajor AttnLayout = 0

// packHeadMajor copies node-major src [rows, heads·dk] into arena scratch
// laid out head-major: dst[a·rows·dk + i·dk + j] = src[i·d + a·dk + j].
func packHeadMajor(arena *Arena, src []float32, rows, heads, dk int) []float32 {
	d := heads * dk
	dst := arena.Get32(rows * d)
	compute.ParallelGrain(rows, rowGrain(d), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := src[i*d : (i+1)*d]
			for a := 0; a < heads; a++ {
				copy(dst[a*rows*dk+i*dk:a*rows*dk+(i+1)*dk], row[a*dk:(a+1)*dk])
			}
		}
	})
	return dst
}

// unpackHeadMajor is the inverse copy, back to node-major dst.
func unpackHeadMajor(dst, src []float32, rows, heads, dk int) {
	d := heads * dk
	compute.ParallelGrain(rows, rowGrain(d), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := dst[i*d : (i+1)*d]
			for a := 0; a < heads; a++ {
				copy(row[a*dk:(a+1)*dk], src[a*rows*dk+i*dk:a*rows*dk+(i+1)*dk])
			}
		}
	})
}

// FusedSegmentAttention32 is the forward-only float32 counterpart of
// FusedSegmentAttention: scaled dot-product attention with edge-modulated
// keys over a directed pair list, softmax-normalised per receiver segment,
// plus (when ew is non-nil) the per-edge mean of k⊙w as the GT edge-stream
// input. bySend is not needed — there is no backward. layout must be
// LayoutHeadMajor. The results are arena-backed; release them with PutF32.
func FusedSegmentAttention32(q, k, v, ew *F32, recv, send, edgeIdx []int32,
	byRecv, byEdge *Segments, heads int, layout AttnLayout, arena *Arena) (att, edgeOut *F32) {

	if layout != LayoutHeadMajor {
		panic(fmt.Sprintf("tensor: fusedattn32 unknown layout %d", layout))
	}
	rows, d := q.rows, q.cols
	if k.rows != rows || k.cols != d || v.rows != rows || v.cols != d {
		panic(fmt.Sprintf("tensor: fusedattn32 shape q %dx%d k %dx%d v %dx%d",
			q.rows, q.cols, k.rows, k.cols, v.rows, v.cols))
	}
	checkPairs("fusedattn32", rows, d, heads, recv, send, byRecv)
	if len(edgeIdx) != len(recv) {
		panic(fmt.Sprintf("tensor: fusedattn32 index lengths %d/%d", len(recv), len(edgeIdx)))
	}

	dk := d / heads
	att = arena.GetF32(rows, d)
	qh := packHeadMajor(arena, q.Data, rows, heads, dk)
	kh := packHeadMajor(arena, k.Data, rows, heads, dk)
	vh := packHeadMajor(arena, v.Data, rows, heads, dk)
	numEdges := 0
	var ewh, edgeData []float32
	if ew != nil {
		numEdges = ew.rows
		checkEdges("fusedattn32", numEdges, ew.cols, d, edgeIdx, byEdge)
		edgeOut = arena.GetF32(numEdges, d)
		ewh, edgeData = packHeadMajor(arena, ew.Data, numEdges, heads, dk), edgeOut.Data
	}
	attH := arena.Get32(rows * d)
	maxBuf, denomBuf := segmentAttentionFwd(qh, kh, vh, ewh, attH, edgeData,
		headMajor(rows, dk), headMajor(numEdges, dk), recv, send, edgeIdx, byRecv, byEdge,
		rows, heads, dk, saxpy32, arena.pool32())
	unpackHeadMajor(att.Data, attH, rows, heads, dk)
	for _, buf := range [][]float32{maxBuf, denomBuf, attH, ewh, vh, kh, qh} {
		arena.Put32(buf)
	}
	return att, edgeOut
}

// FusedAdditiveAttention32 is the forward-only float32 counterpart of
// FusedAdditiveAttention (GAT): per-pair leaky additive scores from
// per-row halves, softmax per receiver segment, aggregating alpha·w_s per
// head. aL/aR are the flattened 1×d attention vectors. The result is
// arena-backed; release it with PutF32.
func FusedAdditiveAttention32(wh *F32, aL, aR []float32, recv, send []int32,
	byRecv *Segments, heads int, arena *Arena) *F32 {

	rows, d := wh.rows, wh.cols
	checkPairs("fusedattn32", rows, d, heads, recv, send, byRecv)
	if len(aL) != d || len(aR) != d {
		panic(fmt.Sprintf("tensor: fusedattn32 attention vectors %d/%d for dim %d", len(aL), len(aR), d))
	}

	dk := d / heads
	att := arena.GetF32(rows, d)
	whh := packHeadMajor(arena, wh.Data, rows, heads, dk)
	attH := arena.Get32(rows * d)
	rsL, rsR, maxBuf, denomBuf := additiveAttentionFwd(whh, aL, aR, attH,
		headMajor(rows, dk), recv, send, byRecv, rows, heads, dk, saxpy32, arena.pool32())
	unpackHeadMajor(att.Data, attH, rows, heads, dk)
	for _, buf := range [][]float32{rsL, rsR, maxBuf, denomBuf, attH, whh} {
		arena.Put32(buf)
	}
	return att
}
