package tensor

import (
	"fmt"
	"math"

	"mega/internal/compute"
)

// additiveAttentionFwd is the one forward of fused GAT-style attention, for
// both precisions and both layouts: per pair p with receiver r and sender s,
//
//	score_p^a = LeakyReLU( a_l^a · w_r + a_r^a · w_s )   (slope 0.2)
//
// softmax-normalised per receiver, aggregating alpha·w_s per head into the
// zeroed att. wh and att share one layout; aL/aR are the flat d-wide
// attention vectors (one dk block per head). The only per-type piece is
// axpy. It returns the [rows,heads] per-row score halves and per-receiver
// max/denominator (scratch borrowed from pool — the caller puts them back),
// which is what the float64 backward keeps.
func additiveAttentionFwd[T float](wh, aL, aR, att []T, layout panels,
	recv, send []int32, byRecv *Segments, rows, heads, dk int,
	axpy func(T, []T, []T), pool *bucketPool[T]) (rsL, rsR, maxBuf, denomBuf []T) {

	d := heads * dk
	P := len(recv)

	// Per-row score halves rs[r,a] = Σ_j ascending wh[r,aj]·a[aj] — the
	// same products and the same j-order the staged RowSum over the
	// broadcast Mul accumulates per pair, hoisted to once per row.
	rsL = pool.get(rows * heads)
	rsR = pool.get(rows * heads)
	compute.ParallelGrain(rows, workGrain(d), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for a := 0; a < heads; a++ {
				w := wh[a*layout.panel+i*layout.row:][:dk]
				al, ar := aL[a*dk:][:dk], aR[a*dk:][:dk]
				var sl, sr T
				for j := range w {
					sl += T(w[j] * al[j])
					sr += T(w[j] * ar[j])
				}
				rsL[i*heads+a] = sl
				rsR[i*heads+a] = sr
			}
		}
	})

	// Softmax + aggregation, receiver-segment-parallel, ascending pair
	// order within each segment (the staged ScatterAddRows order).
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
				wa := wh[a*layout.panel:]
				left := rsL[r*heads+a]
				mx := T(math.Inf(-1))
				for _, p := range seg {
					if sv := gatScore(left + rsR[int(send[p])*heads+a]); sv > mx {
						mx = sv
					}
				}
				maxBuf[r*heads+a] = mx
				var denom T
				for _, p := range seg {
					denom += exp(gatScore(left+rsR[int(send[p])*heads+a]) - mx)
				}
				denomBuf[r*heads+a] = denom
				recip := 1 / (denom + 1e-9)
				o := a*layout.panel + r*layout.row
				orow := att[o : o+dk]
				for _, p := range seg {
					s := int(send[p])
					ex := exp(gatScore(left+rsR[s*heads+a]) - mx)
					axpy(ex*recip, wa[s*layout.row:][:dk], orow)
				}
			}
		}
	})
	return rsL, rsR, maxBuf, denomBuf
}

// gatScore is LeakyReLU with slope 0.2, computed with the exact staged
// decomposition relu + (x-relu)·0.2 (two ReLU nodes in the staged graph;
// the formula reproduces their combined value bit-for-bit).
func gatScore[T float](x T) T {
	relu := x
	if relu < 0 {
		relu = 0
	}
	return relu + T((x-relu)*0.2)
}

// FusedAdditiveAttention is the float64, differentiable entry point of
// additiveAttentionFwd. wh is node-major [R,d]; aL/aR are the 1×d
// attention vectors. The node subsumes the staged path's broadcast row
// products, per-pair gathers, row sums, leaky activation, softmax, and
// aggregation, and its backward replicates that chain's accumulation
// orders exactly — including the order the three staged consumers of wh
// (the aR product, the aL product, then the value gather) accumulate into
// wh.Grad.
func FusedAdditiveAttention(wh, aL, aR *Tensor, recv, send []int32,
	byRecv, bySend *Segments, heads int, arena *Arena) *Tensor {

	rows, d := wh.rows, wh.cols
	checkPairs("fusedattn", rows, d, heads, recv, send, byRecv)
	if bySend == nil || len(bySend.Start) != rows+1 {
		panic("tensor: fusedattn missing/mis-sized send segments")
	}
	if aL.rows != 1 || aL.cols != d || aR.rows != 1 || aR.cols != d {
		panic(fmt.Sprintf("tensor: fusedattn attention vectors %dx%d/%dx%d for dim %d",
			aL.rows, aL.cols, aR.rows, aR.cols, d))
	}

	dk := d / heads
	att := newResult(rows, d, wh, aL, aR)
	rsL, rsR, maxBuf, denomBuf := additiveAttentionFwd(wh.Data, aL.Data, aR.Data, att.Data,
		nodeMajor(heads, dk), recv, send, byRecv, rows, heads, dk, axpy[float64], arena.pool64())
	release := func() {
		arena.Put(rsL)
		arena.Put(rsR)
		arena.Put(maxBuf)
		arena.Put(denomBuf)
	}
	if !att.requiresGrad {
		release()
		return att
	}
	att.backFn = func() {
		fusedAdditiveBackward(wh, aL, aR, att, recv, send, byRecv, bySend,
			heads, dk, rsL, rsR, maxBuf, denomBuf, arena)
		release()
	}
	return att
}

// fusedAdditiveBackward recomputes the per-pair exps from the saved
// node-major buffers and accumulates dWh/dAL/dAR in the staged orders.
func fusedAdditiveBackward(wh, aL, aR, att *Tensor, recv, send []int32,
	byRecv, bySend *Segments, heads, dk int,
	rsL, rsR, maxBuf, denomBuf []float64, arena *Arena) {

	if att.Grad == nil {
		return
	}
	d := wh.cols
	rows := wh.rows
	P := len(recv)
	dAtt := att.Grad

	// Pass 0, pair-parallel: ex and the alpha-gradient Σ_j dAtt·wh_s.
	exBuf := arena.Get(P * heads)
	gBuf := arena.Get(P * heads)
	compute.ParallelGrain(P, workGrain(d), func(lo, hi int) {
		for p := lo; p < hi; p++ {
			r, s := int(recv[p]), int(send[p])
			for a := 0; a < heads; a++ {
				sc := gatScore(rsL[r*heads+a] + rsR[s*heads+a])
				exBuf[p*heads+a] = math.Exp(sc - maxBuf[r*heads+a])
				base := a * dk
				g := 0.0
				for j := base; j < base+dk; j++ {
					g += float64(dAtt[r*d+j] * wh.Data[s*d+j])
				}
				gBuf[p*heads+a] = g
			}
		}
	})

	// Pass 1, receiver-segment-parallel: softmax backward to the score
	// gradient, gated through the leaky slope to dx (overwriting gBuf),
	// plus the receiver-side sum dsL[r,a] = Σ ascending dx.
	dsL := arena.Get(rows * heads)
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
				sum := 0.0
				for _, p := range seg {
					pi := int(p)
					exg := float64(gBuf[pi*heads+a]*recip) + dDenom
					sg := exg * exBuf[pi*heads+a]
					dx := sg
					if rsL[r*heads+a]+rsR[int(send[pi])*heads+a] <= 0 {
						dx = sg * 0.2
					}
					gBuf[pi*heads+a] = dx
					sum += dx
				}
				dsL[r*heads+a] = sum
			}
		}
	})

	// Pass 2, sender-segment-parallel: dWh. The staged path accumulates
	// three terms per element in reverse-topological order — the aR
	// product, the aL product, then the value-gather terms in ascending
	// pair order — so replicate exactly that sequence per sender row.
	if wh.requiresGrad {
		wh.ensureGrad()
	}
	dsR := arena.Get(rows * heads)
	compute.ParallelGrain(rows, segGrain, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			seg := bySend.Order[bySend.Start[s]:bySend.Start[s+1]]
			for a := 0; a < heads; a++ {
				sum := 0.0
				for _, p := range seg {
					sum += gBuf[int(p)*heads+a]
				}
				dsR[s*heads+a] = sum
			}
			if wh.Grad == nil {
				continue
			}
			for a := 0; a < heads; a++ {
				base := a * dk
				for j := base; j < base+dk; j++ {
					wh.Grad[s*d+j] += float64(dsR[s*heads+a] * aR.Data[j])
					wh.Grad[s*d+j] += float64(dsL[s*heads+a] * aL.Data[j])
				}
			}
			for _, p := range seg {
				pi := int(p)
				r := int(recv[pi])
				for a := 0; a < heads; a++ {
					alpha := exBuf[pi*heads+a] * (1 / (denomBuf[r*heads+a] + 1e-9))
					base := a * dk
					for j := base; j < base+dk; j++ {
						wh.Grad[s*d+j] += float64(dAtt[r*d+j] * alpha)
					}
				}
			}
		}
	})

	// Pass 3, column-striped: dAL/dAR accumulate over rows in ascending
	// order — the staged broadcast-gather backward order.
	if aL.requiresGrad {
		aL.ensureGrad()
		compute.ParallelGrain(d, workGrain(rows), func(jlo, jhi int) {
			for i := 0; i < rows; i++ {
				for j := jlo; j < jhi; j++ {
					aL.Grad[j] += float64(dsL[i*heads+j/dk] * wh.Data[i*d+j])
				}
			}
		})
	}
	if aR.requiresGrad {
		aR.ensureGrad()
		compute.ParallelGrain(d, workGrain(rows), func(jlo, jhi int) {
			for i := 0; i < rows; i++ {
				for j := jlo; j < jhi; j++ {
					aR.Grad[j] += float64(dsR[i*heads+j/dk] * wh.Data[i*d+j])
				}
			}
		})
	}

	arena.Put(exBuf)
	arena.Put(gBuf)
	arena.Put(dsL)
	arena.Put(dsR)
}
