package models

import (
	"fmt"

	"mega/internal/nn"
	"mega/internal/tensor"
)

// Float32 inference fast path: frozen-weights, tape-free forwards for the
// models whose serving predictions are batch-composition independent.
//
// PrepareF32 downcasts a trained float64 model's parameters once (one
// rounding per weight, at load time) into an immutable ModelF32; its
// Forward is a straight-line float32 pass over a prebuilt Context —
// no autograd tape, no Grad buffers, scratch from the arena's float32
// buckets, attention in the head-major layout. Training never sees any of
// this: the float64 Model is read, not touched.
//
// GT (LayerNorm) and GAT (full-batch BatchNorm) are supported. GatedGCN is
// not: its serving answers already depend on micro-batch composition (see
// CHANGES PR 1), and the f32 path's differential harness needs a per-graph
// reference to diverge from.

// ModelF32 is a frozen float32 inference model.
type ModelF32 interface {
	// Forward runs the tape-free float32 pass, returning one output row
	// per member graph. The caller owns the result and should return its
	// payload to the arena when done.
	Forward(ctx *Context, arena *tensor.Arena) *tensor.F32
	// Name identifies the source model configuration.
	Name() string
	// SnapshotParams flattens every downcast parameter in a fixed order —
	// the determinism probe for checkpoint-downcast tests.
	SnapshotParams() []float32
}

// PrepareF32 downcasts m's parameters into a frozen float32 model.
func PrepareF32(m Model) (ModelF32, error) {
	switch t := m.(type) {
	case *GT:
		return newGTF32(t), nil
	case *GAT:
		return newGATF32(t), nil
	default:
		return nil, fmt.Errorf("models: no float32 inference path for %s (batch-dependent normalisation)", m.Name())
	}
}

// linear32 is a frozen linear layer.
type linear32 struct {
	w *tensor.F32
	b []float32
}

func downLinear(l *nn.Linear) linear32 {
	return linear32{w: tensor.Downcast(l.W), b: tensor.DowncastSlice(l.B.Data)}
}

// forward computes x·W + b and then the rest of ep, as one matmul whose
// row epilogue adds the bias.
func (l linear32) forward(x *tensor.F32, ep tensor.Epilogue32, arena *tensor.Arena) *tensor.F32 {
	ep.Bias = l.b
	return tensor.MatMulEpilogue32(x, l.w, ep, arena)
}

func (l linear32) snapshot(dst []float32) []float32 {
	return append(append(dst, l.w.Data...), l.b...)
}

// norm32 is a frozen affine normalisation.
type norm32 struct {
	gamma, beta []float32
}

func downNorm(n *nn.Norm) norm32 {
	return norm32{gamma: tensor.DowncastSlice(n.Gamma.Data), beta: tensor.DowncastSlice(n.Beta.Data)}
}

// addNorm is the epilogue LayerNorm(res + ·) with n's affine.
func (n norm32) addNorm(res *tensor.F32) tensor.Epilogue32 {
	return tensor.Epilogue32{Residual: res, Gamma: n.gamma, Beta: n.beta}
}

func (n norm32) batchNorm(x *tensor.F32, arena *tensor.Arena) *tensor.F32 {
	return tensor.BatchNorm32(x, n.gamma, n.beta, arena)
}

func (n norm32) snapshot(dst []float32) []float32 {
	return append(append(dst, n.gamma...), n.beta...)
}

// mlp32 is the frozen readout head.
type mlp32 struct {
	l1, l2 linear32
}

func downMLP(m *nn.MLP) mlp32 {
	return mlp32{l1: downLinear(m.L1), l2: downLinear(m.L2)}
}

func (m mlp32) forward(x *tensor.F32, arena *tensor.Arena) *tensor.F32 {
	h := m.l1.forward(x, tensor.Epilogue32{ReLU: true}, arena)
	out := m.l2.forward(h, tensor.Epilogue32{}, arena)
	arena.PutF32(h)
	return out
}

// syncDuplicates32 averages duplicate rows per node slot and gathers back
// — the f32 counterpart of the context's Sync closure. Identity when the
// batch has no revisits.
func syncDuplicates32(ctx *Context, h *tensor.F32, arena *tensor.Arena) *tensor.F32 {
	if len(ctx.syncPositions) == 0 {
		return h
	}
	nodes := tensor.SegmentMean32(h, ctx.posToNode, ctx.numNodeSlots, arena)
	out := tensor.GatherRows32(nodes, ctx.posToNode, arena)
	arena.PutF32(nodes)
	arena.PutF32(h)
	return out
}

// readout32 pools working rows to per-graph rows: positions → node slots →
// graphs for MEGA contexts (so revisited nodes are not over-weighted),
// plain per-graph pooling otherwise — the same arithmetic as Readout.
func readout32(ctx *Context, h *tensor.F32, arena *tensor.Arena) *tensor.F32 {
	if ctx.posToNode == nil {
		return tensor.SegmentMean32(h, ctx.GraphSeg, ctx.NumGraphs, arena)
	}
	nodes := tensor.SegmentMean32(h, ctx.posToNode, ctx.numNodeSlots, arena)
	out := tensor.SegmentMean32(nodes, ctx.nodeGraph, ctx.NumGraphs, arena)
	arena.PutF32(nodes)
	return out
}

// ---------------------------------------------------------------------------
// GT

// GTF32 is the frozen float32 Graph Transformer.
type GTF32 struct {
	cfg     Config
	nodeTab *tensor.F32
	edgeTab *tensor.F32
	layers  []*gtLayerF32
	readout mlp32
}

var _ ModelF32 = (*GTF32)(nil)

type gtLayerF32 struct {
	q, k, v, o linear32
	we, oe     linear32
	ffnH1      linear32
	ffnH2      linear32
	ffnE1      linear32
	ffnE2      linear32
	lnH1, lnH2 norm32
	lnE1, lnE2 norm32
}

func newGTF32(m *GT) *GTF32 {
	out := &GTF32{
		cfg:     m.cfg,
		nodeTab: tensor.Downcast(m.enc.node.Table),
		edgeTab: tensor.Downcast(m.enc.edge.Table),
		readout: downMLP(m.readout),
	}
	for _, l := range m.layers {
		out.layers = append(out.layers, &gtLayerF32{
			q: downLinear(l.q), k: downLinear(l.k), v: downLinear(l.v), o: downLinear(l.o),
			we: downLinear(l.we), oe: downLinear(l.oe),
			ffnH1: downLinear(l.ffnH1), ffnH2: downLinear(l.ffnH2),
			ffnE1: downLinear(l.ffnE1), ffnE2: downLinear(l.ffnE2),
			lnH1: downNorm(l.lnH1), lnH2: downNorm(l.lnH2),
			lnE1: downNorm(l.lnE1), lnE2: downNorm(l.lnE2),
		})
	}
	return out
}

// Name implements ModelF32.
func (m *GTF32) Name() string { return "GT" }

// Config returns the source model configuration.
func (m *GTF32) Config() Config { return m.cfg }

// SnapshotParams implements ModelF32.
func (m *GTF32) SnapshotParams() []float32 {
	out := append([]float32(nil), m.nodeTab.Data...)
	out = append(out, m.edgeTab.Data...)
	for _, l := range m.layers {
		for _, lin := range []linear32{l.q, l.k, l.v, l.o, l.we, l.oe, l.ffnH1, l.ffnH2, l.ffnE1, l.ffnE2} {
			out = lin.snapshot(out)
		}
		for _, n := range []norm32{l.lnH1, l.lnH2, l.lnE1, l.lnE2} {
			out = n.snapshot(out)
		}
	}
	out = m.readout.l1.snapshot(out)
	return m.readout.l2.snapshot(out)
}

// Forward implements ModelF32.
func (m *GTF32) Forward(ctx *Context, arena *tensor.Arena) *tensor.F32 {
	h := tensor.GatherRows32(m.nodeTab, ctx.NodeTypeIDs, arena)
	e := tensor.GatherRows32(m.edgeTab, ctx.EdgeTypeIDs, arena)
	for _, l := range m.layers {
		hn, en := l.forward(ctx, h, e, m.cfg.Heads, arena)
		arena.PutF32(h)
		arena.PutF32(e)
		h, e = hn, en
	}
	pooled := readout32(ctx, h, arena)
	arena.PutF32(h)
	arena.PutF32(e)
	out := m.readout.forward(pooled, arena)
	arena.PutF32(pooled)
	return out
}

// forward is ten matmuls; every bias, ReLU, residual add and LayerNorm
// runs in one of their row epilogues.
func (l *gtLayerF32) forward(ctx *Context, h, e *tensor.F32, heads int, arena *tensor.Arena) (hOut, eOut *tensor.F32) {
	var bias tensor.Epilogue32
	relu := tensor.Epilogue32{ReLU: true}

	qh := l.q.forward(h, bias, arena)
	kh := l.k.forward(h, bias, arena)
	vh := l.v.forward(h, bias, arena)
	eh := l.we.forward(e, bias, arena)
	att, eAvg := tensor.FusedSegmentAttention32(qh, kh, vh, eh,
		ctx.RecvIdx, ctx.SendIdx, ctx.EdgeIdx,
		ctx.recvSegments(), ctx.edgeSegments(), heads, tensor.LayoutHeadMajor, arena)
	arena.PutF32(qh)
	arena.PutF32(kh)
	arena.PutF32(vh)
	arena.PutF32(eh)

	// Node stream: LN(h + O·att), then LN(h1 + FFN(h1)).
	h1 := l.o.forward(att, l.lnH1.addNorm(h), arena)
	arena.PutF32(att)
	f := l.ffnH1.forward(h1, relu, arena)
	hOut = l.ffnH2.forward(f, l.lnH2.addNorm(h1), arena)
	arena.PutF32(f)
	arena.PutF32(h1)

	// Edge stream on the per-edge mean of k⊙ê, the same way.
	e1 := l.oe.forward(eAvg, l.lnE1.addNorm(e), arena)
	arena.PutF32(eAvg)
	f = l.ffnE1.forward(e1, relu, arena)
	eOut = l.ffnE2.forward(f, l.lnE2.addNorm(e1), arena)
	arena.PutF32(f)
	arena.PutF32(e1)

	hOut = syncDuplicates32(ctx, hOut, arena)
	return hOut, eOut
}

// ---------------------------------------------------------------------------
// GAT

// GATF32 is the frozen float32 Graph Attention Network.
type GATF32 struct {
	cfg     Config
	nodeTab *tensor.F32
	layers  []*gatLayerF32
	readout mlp32
}

var _ ModelF32 = (*GATF32)(nil)

type gatLayerF32 struct {
	w      linear32
	aL, aR []float32
	bn     norm32
}

func newGATF32(m *GAT) *GATF32 {
	out := &GATF32{
		cfg:     m.cfg,
		nodeTab: tensor.Downcast(m.enc.node.Table),
		readout: downMLP(m.readout),
	}
	for _, l := range m.layers {
		out.layers = append(out.layers, &gatLayerF32{
			w:  downLinear(l.w),
			aL: tensor.DowncastSlice(l.aL.Data),
			aR: tensor.DowncastSlice(l.aR.Data),
			bn: downNorm(l.bn),
		})
	}
	return out
}

// Name implements ModelF32.
func (m *GATF32) Name() string { return "GAT" }

// SnapshotParams implements ModelF32.
func (m *GATF32) SnapshotParams() []float32 {
	out := append([]float32(nil), m.nodeTab.Data...)
	for _, l := range m.layers {
		out = l.w.snapshot(out)
		out = append(out, l.aL...)
		out = append(out, l.aR...)
		out = l.bn.snapshot(out)
	}
	out = m.readout.l1.snapshot(out)
	return m.readout.l2.snapshot(out)
}

// Forward implements ModelF32. Note GAT's BatchNorm runs full-batch
// statistics, so like the float64 path its outputs depend on batch
// composition; the serving layer only batches identical work, and the
// differential harness compares like-for-like batches.
func (m *GATF32) Forward(ctx *Context, arena *tensor.Arena) *tensor.F32 {
	h := tensor.GatherRows32(m.nodeTab, ctx.NodeTypeIDs, arena)
	for _, l := range m.layers {
		hn := l.forward(ctx, h, m.cfg.Heads, arena)
		arena.PutF32(h)
		h = hn
	}
	pooled := readout32(ctx, h, arena)
	arena.PutF32(h)
	out := m.readout.forward(pooled, arena)
	arena.PutF32(pooled)
	return out
}

func (l *gatLayerF32) forward(ctx *Context, h *tensor.F32, heads int, arena *tensor.Arena) *tensor.F32 {

	wh := l.w.forward(h, tensor.Epilogue32{}, arena)
	att := tensor.FusedAdditiveAttention32(wh, l.aL, l.aR,
		ctx.RecvIdx, ctx.SendIdx, ctx.recvSegments(), heads, arena)
	arena.PutF32(wh)
	sum := tensor.Add32(h, att, arena)
	arena.PutF32(att)
	out := l.bn.batchNorm(sum, arena)
	arena.PutF32(sum)
	tensor.ReLU32(out)
	return syncDuplicates32(ctx, out, arena)
}
