package models

import (
	"math"
	"runtime"
	"testing"

	"mega/internal/compute"
	"mega/internal/gpusim"
	"mega/internal/tensor"
)

// Fused-vs-staged equivalence: the fused attention kernel must reproduce
// the staged pipeline bit-for-bit — identical forward outputs, identical
// gradients on every parameter, at any thread count, on both engines, for
// both attention models. Exact equality, not tolerance: the kernel
// replicates the staged ops' accumulation orders, so any drift is a bug.

// buildEquivContext builds one context per engine over shared instances.
func equivContexts(t *testing.T) map[string]*Context {
	t.Helper()
	insts := testInstances(t, 6)
	megaCtx, err := NewMegaContext(insts, MegaOptions{}, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	dglCtx, err := NewDGLContext(insts, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Context{"mega": megaCtx, "dgl": dglCtx}
}

// newAttnModel builds a GT or GAT running the fused kernel (the production
// model) or, for "staged", the composed-op reference pipeline below over
// the same parameters.
func newAttnModel(t *testing.T, name, mode string) Model {
	t.Helper()
	cfg := smallConfig()
	switch {
	case name == "GT" && mode == "fused":
		return NewGT(cfg)
	case name == "GT" && mode == "staged":
		return stagedGT{NewGT(cfg)}
	case name == "GAT" && mode == "fused":
		return NewGAT(cfg)
	case name == "GAT" && mode == "staged":
		return stagedGAT{NewGAT(cfg)}
	}
	t.Fatalf("unknown model %q / mode %q", name, mode)
	return nil
}

// stagedGT is the reference oracle for GT: the same parameters, with each
// layer's attention block run as composed ops (forwardAttnStaged plus the
// staged per-edge mean) instead of the fused kernel.
type stagedGT struct{ *GT }

func (m stagedGT) Forward(ctx *Context) *tensor.Tensor {
	h, e := m.enc.forward(ctx)
	for _, l := range m.layers {
		ctx.Prof.LayerStart()
		att, kmod := l.forwardAttnStaged(ctx, h, e, m.cfg.Heads)
		p := pass64{ctx}
		hOut := stream[*tensor.Tensor](p, h, att, l.o, l.ffnH1, l.ffnH2, l.lnH1, l.lnH2)
		e = stream[*tensor.Tensor](p, e, ctx.EdgeMean(kmod), l.oe, l.ffnE1, l.ffnE2, l.lnE1, l.lnE2)
		h = ctx.SyncDuplicates(hOut)
	}
	pooled := ctx.Readout(h)
	ctx.Prof.Linear(pooled.Rows(), pooled.Cols(), m.cfg.OutDim)
	return m.readout.Forward(pooled)
}

// forwardAttnStaged runs the attention block as composed ops: q/k/v/ê
// projections, per-pair gathers (the GT's five edge-indexed scatters of
// Table I), edge-modulated per-head scaled dot-product attention. It
// returns the aggregated attention output and the per-pair modulated keys
// k⊙ê, which the edge stream reduces per edge. It is the reference the
// fused kernel is pinned against bit for bit.
func (l *gtLayer) forwardAttnStaged(ctx *Context, h, e *tensor.Tensor, heads int) (att, kmod *tensor.Tensor) {
	d := h.Cols()
	dk := d / heads

	qh := ctx.Linear(l.q, h)
	kh := ctx.Linear(l.k, h)
	vh := ctx.Linear(l.v, h)
	eh := ctx.Linear(l.we, e)

	qp := ctx.GatherRecv(qh)
	kp := ctx.GatherSend(kh)
	vp := ctx.GatherSend(vh)
	ep := ctx.GatherEdges(eh)

	kmod = tensor.Mul(kp, ep) // edge features modulate keys
	headOuts := make([]*tensor.Tensor, heads)
	scale := 1 / math.Sqrt(float64(dk))
	for a := 0; a < heads; a++ {
		qa := tensor.NarrowCols(qp, a*dk, dk)
		ka := tensor.NarrowCols(kmod, a*dk, dk)
		va := tensor.NarrowCols(vp, a*dk, dk)
		score := tensor.Scale(tensor.RowDot(qa, ka), scale)
		alpha := ctx.SegmentSoftmaxByRecv(score)
		headOuts[a] = ctx.AggregateByRecv(tensor.MulColVec(va, alpha))
	}
	att = tensor.ConcatCols(headOuts...)
	return att, kmod
}

// stagedGAT is the reference oracle for GAT, likewise.
type stagedGAT struct{ *GAT }

func (m stagedGAT) Forward(ctx *Context) *tensor.Tensor {
	h, _ := m.enc.forward(ctx)
	for _, l := range m.layers {
		ctx.Prof.LayerStart()
		wh := ctx.Linear(l.w, h)
		att := gatAttentionStaged(ctx, wh, l.aL, l.aR, m.cfg.Heads)
		out := ctx.Act(tensor.ReLU, ctx.Norm(l.bn, tensor.Add(h, att)))
		h = ctx.SyncDuplicates(out)
	}
	pooled := ctx.Readout(h)
	ctx.Prof.Linear(pooled.Rows(), pooled.Cols(), m.cfg.OutDim)
	return m.readout.Forward(pooled)
}

// gatAttentionStaged is GAT's attention block as composed ops: per-row
// score halves sL[i] = a_l·(Wh)_i per head, computed densely then gathered
// per pair — the neural-then-graph split of §II-A — leaky scores, segment
// softmax, and aggregation per head.
func gatAttentionStaged(ctx *Context, wh, aL, aR *tensor.Tensor, heads int) *tensor.Tensor {
	dk := wh.Cols() / heads
	sL := tensor.Mul(wh, broadcastRow(aL, wh.Rows()))
	sR := tensor.Mul(wh, broadcastRow(aR, wh.Rows()))

	whSend := ctx.GatherSend(wh)
	sLr := ctx.GatherRecv(sL)
	sRs := ctx.GatherSend(sR)

	headOuts := make([]*tensor.Tensor, heads)
	for a := 0; a < heads; a++ {
		lhs := tensor.RowSum(tensor.NarrowCols(sLr, a*dk, dk))
		rhs := tensor.RowSum(tensor.NarrowCols(sRs, a*dk, dk))
		score := ctx.Act(leakyReLU, tensor.Add(lhs, rhs))
		alpha := ctx.SegmentSoftmaxByRecv(score)
		va := tensor.NarrowCols(whSend, a*dk, dk)
		headOuts[a] = ctx.AggregateByRecv(tensor.MulColVec(va, alpha))
	}
	return tensor.ConcatCols(headOuts...)
}

// leakyReLU applies max(x, 0.2x), GAT's score nonlinearity.
func leakyReLU(x *tensor.Tensor) *tensor.Tensor {
	return tensor.Add(tensor.ReLU(x), tensor.Scale(tensor.Sub(x, tensor.ReLU(x)), 0.2))
}

// broadcastRow tiles a 1×d row vector to rows×d without gradient fan-in
// surprises (the underlying tensor op handles accumulation).
func broadcastRow(v *tensor.Tensor, rows int) *tensor.Tensor {
	idx := make([]int32, rows)
	return tensor.GatherRows(v, idx)
}

// stepExact runs steps forward+backward passes (simulating training by
// scaling params with their gradients between steps, so later steps see
// diverging inputs if anything drifts) and returns the final outputs and
// parameter gradients.
func stepExact(t *testing.T, m Model, ctx *Context, steps int) (*tensor.Tensor, [][]float64) {
	t.Helper()
	params := m.Params()
	var out *tensor.Tensor
	for s := 0; s < steps; s++ {
		for _, p := range params {
			p.ZeroGrad()
		}
		out = m.Forward(ctx)
		loss := tensor.MAELoss(out, ctx.Targets)
		loss.Backward()
		if s+1 < steps {
			// A deterministic SGD-flavoured update keeps the
			// trajectories comparable across implementations.
			for _, p := range params {
				if p.Grad == nil {
					continue
				}
				for i := range p.Data {
					p.Data[i] -= 1e-3 * p.Grad[i]
				}
			}
		}
	}
	grads := make([][]float64, len(params))
	for i, p := range params {
		if p.Grad != nil {
			grads[i] = append([]float64(nil), p.Grad...)
		}
	}
	return out, grads
}

func TestFusedMatchesStagedExactly(t *testing.T) {
	ctxs := equivContexts(t)
	for _, model := range []string{"GT", "GAT"} {
		for engine, ctx := range ctxs {
			t.Run(model+"/"+engine, func(t *testing.T) {
				staged := newAttnModel(t, model, "staged")
				fused := newAttnModel(t, model, "fused")
				sOut, sGrads := stepExact(t, staged, ctx, 3)
				fOut, fGrads := stepExact(t, fused, ctx, 3)
				for i := range sOut.Data {
					if sOut.Data[i] != fOut.Data[i] {
						t.Fatalf("output %d: staged %v fused %v", i, sOut.Data[i], fOut.Data[i])
					}
				}
				if len(sGrads) != len(fGrads) {
					t.Fatalf("param count mismatch %d vs %d", len(sGrads), len(fGrads))
				}
				for pi := range sGrads {
					if len(sGrads[pi]) != len(fGrads[pi]) {
						t.Fatalf("param %d grad presence mismatch", pi)
					}
					for i := range sGrads[pi] {
						if sGrads[pi][i] != fGrads[pi][i] {
							t.Fatalf("param %d grad %d: staged %v fused %v",
								pi, i, sGrads[pi][i], fGrads[pi][i])
						}
					}
				}
			})
		}
	}
}

// TestFusedThreadInvariant pins that the fused path is bit-identical at
// any thread count (and so equal to the staged serial reference).
func TestFusedThreadInvariant(t *testing.T) {
	insts := testInstances(t, 6)
	run := func(threads int, model string) (*tensor.Tensor, [][]float64) {
		prev := compute.SetMaxThreads(threads)
		defer compute.SetMaxThreads(prev)
		ctx, err := NewMegaContext(insts, MegaOptions{}, nil, 16)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Scratch = tensor.NewArena()
		m := newAttnModel(t, model, "fused")
		return stepExact(t, m, ctx, 2)
	}
	for _, model := range []string{"GT", "GAT"} {
		base, baseG := run(1, model)
		for _, threads := range []int{2, runtime.NumCPU()} {
			out, grads := run(threads, model)
			for i := range base.Data {
				if base.Data[i] != out.Data[i] {
					t.Fatalf("%s output %d differs at %d threads", model, i, threads)
				}
			}
			for pi := range baseG {
				for i := range baseG[pi] {
					if baseG[pi][i] != grads[pi][i] {
						t.Fatalf("%s param %d grad %d differs at %d threads", model, pi, i, threads)
					}
				}
			}
		}
	}
}

// TestFusedOpCountsMatchStaged pins that Table I's abstract op accounting
// is independent of the attention implementation.
func TestFusedOpCountsMatchStaged(t *testing.T) {
	ctxs := equivContexts(t)
	for _, model := range []string{"GT", "GAT"} {
		for engine, ctx := range ctxs {
			staged := newAttnModel(t, model, "staged")
			fused := newAttnModel(t, model, "fused")
			sc, fc := countOps(staged, ctx), countOps(fused, ctx)
			if sc != fc {
				t.Fatalf("%s/%s op counts: staged %+v fused %+v", model, engine, sc, fc)
			}
		}
	}
}

// TestFusedProfilingMatchesStaged pins that the fused path reports the
// exact same simulated-kernel stream as the staged path: gpusim's L2 is
// a real set-associative LRU, so identical cycle totals mean identical
// address streams in identical order — the "profiling stays honest"
// requirement.
func TestFusedProfilingMatchesStaged(t *testing.T) {
	insts := testInstances(t, 6)
	cycles := func(engine EngineKind, mode string) (float64, float64) {
		sim := gpusim.New(gpusim.GTX1080())
		var ctx *Context
		var err error
		if engine == EngineMega {
			ctx, err = NewMegaContext(insts, MegaOptions{}, sim, 16)
		} else {
			ctx, err = NewDGLContext(insts, sim, 16)
		}
		if err != nil {
			t.Fatal(err)
		}
		m := newAttnModel(t, "GT", mode)
		out := m.Forward(ctx)
		fwd := sim.TotalCycles()
		tensor.MAELoss(out, ctx.Targets).Backward()
		ctx.Prof.Backward()
		return fwd, sim.TotalCycles()
	}
	for _, engine := range []EngineKind{EngineMega, EngineDGL} {
		sf, st := cycles(engine, "staged")
		ff, ft := cycles(engine, "fused")
		if sf != ff || st != ft {
			t.Fatalf("%v cycles differ: staged fwd %v total %v, fused fwd %v total %v",
				engine, sf, st, ff, ft)
		}
	}
}

// TestFusedArenaReuseIsExact pins that reusing pooled scratch across many
// steps cannot perturb results: the second and later steps (served from
// the arena) must match a fresh-allocation run bit-for-bit.
func TestFusedArenaReuseIsExact(t *testing.T) {
	insts := testInstances(t, 4)
	run := func(arena *tensor.Arena) (*tensor.Tensor, [][]float64) {
		ctx, err := NewMegaContext(insts, MegaOptions{}, nil, 16)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Scratch = arena
		m := newAttnModel(t, "GT", "fused")
		return stepExact(t, m, ctx, 4)
	}
	base, baseG := run(nil)
	arena := tensor.NewArena()
	out, grads := run(arena)
	for i := range base.Data {
		if base.Data[i] != out.Data[i] {
			t.Fatalf("output %d differs under arena reuse", i)
		}
	}
	for pi := range baseG {
		for i := range baseG[pi] {
			if baseG[pi][i] != grads[pi][i] {
				t.Fatalf("param %d grad %d differs under arena reuse", pi, i)
			}
		}
	}
	if arena.Buffered() == 0 {
		t.Fatal("arena never reclaimed any scratch buffer")
	}
}

// TestUnknownAttentionIsAConstructionError pins that naming a deleted
// attention implementation never silently runs the fused one.
func TestUnknownAttentionIsAConstructionError(t *testing.T) {
	build := map[string]func(Config){
		"GT":  func(c Config) { NewGT(c) },
		"GAT": func(c Config) { NewGAT(c) },
	}
	for name, construct := range build {
		for attention, ok := range map[string]bool{"": true, "fused": true, "staged": false} {
			cfg := smallConfig()
			cfg.Attention = attention
			func() {
				defer func() {
					if panicked := recover() != nil; panicked == ok {
						t.Errorf("%s with Attention=%q: panicked=%v", name, attention, panicked)
					}
				}()
				construct(cfg)
			}()
		}
	}
}
