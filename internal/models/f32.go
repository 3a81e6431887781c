package models

import (
	"fmt"

	"mega/internal/nn"
	"mega/internal/tensor"
)

// Float32 inference fast path: a frozen-weights, tape-free run of a model's
// own forward at float32.
//
// PrepareF32 downcasts a trained float64 model's parameters once (one
// rounding per weight, at load time); the ModelF32 it returns runs the
// model's one forward body (gtForward, gatForward) over pass32 — no
// autograd tape, no Grad buffers, scratch from the arena's float32
// buckets, attention in the head-major layout. Training never sees any of
// this: the float64 Model is read, not touched.
//
// GT and GAT have a float32 forward; GatedGCN has none.

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
	f := &frozenF32{name: m.Name(), down: make(map[*tensor.Tensor]*tensor.F32)}
	switch t := m.(type) {
	case *GT:
		f.forward = func(ctx *Context, p pass[*tensor.F32]) *tensor.F32 { return gtForward(t, ctx, p) }
	case *GAT:
		f.forward = func(ctx *Context, p pass[*tensor.F32]) *tensor.F32 { return gatForward(t, ctx, p) }
	default:
		return nil, fmt.Errorf("models: %s has no float32 forward (only GT and GAT do)", m.Name())
	}
	for _, w := range m.Params() {
		d := tensor.Downcast(w)
		f.params = append(f.params, d)
		f.down[w] = d
	}
	return f, nil
}

// frozenF32 is a model's forward at float32 over the downcast of every
// parameter. It is immutable, so concurrent Forwards may share it.
type frozenF32 struct {
	name    string
	forward func(*Context, pass[*tensor.F32]) *tensor.F32
	// down maps each float64 parameter to its downcast; params holds the
	// downcasts in Params() order.
	down   map[*tensor.Tensor]*tensor.F32
	params []*tensor.F32
}

// Name implements ModelF32.
func (f *frozenF32) Name() string { return f.name }

// SnapshotParams implements ModelF32: the downcasts in Params() order.
func (f *frozenF32) SnapshotParams() []float32 {
	var out []float32
	for _, d := range f.params {
		out = append(out, d.Data...)
	}
	return out
}

// Forward implements ModelF32.
func (f *frozenF32) Forward(ctx *Context, arena *tensor.Arena) *tensor.F32 {
	return f.forward(ctx, &pass32{c: ctx, arena: arena, down: f.down})
}

// pass32 is the float32 pass: the tape-free kernels over the downcast
// weights, every intermediate in arena scratch. Each linear is one matmul
// whose row epilogue runs its bias, ReLU, residual add and LayerNorm.
type pass32 struct {
	c     *Context
	arena *tensor.Arena
	down  map[*tensor.Tensor]*tensor.F32
}

// vec is the downcast of a 1×n parameter row.
func (p *pass32) vec(w *tensor.Tensor) []float32 { return p.down[w].Data }

func (p *pass32) embed(enc *encoder) (h, e *tensor.F32) {
	h = tensor.GatherRows32(p.down[enc.node.Table], p.c.NodeTypeIDs, p.arena)
	e = tensor.GatherRows32(p.down[enc.edge.Table], p.c.EdgeTypeIDs, p.arena)
	return h, e
}

func (p *pass32) linear(l *nn.Linear, x *tensor.F32, relu bool) *tensor.F32 {
	return tensor.MatMulEpilogue32(x, p.down[l.W], tensor.Epilogue32{Bias: p.vec(l.B), ReLU: relu}, p.arena)
}

func (p *pass32) linearNorm(l *nn.Linear, x, res *tensor.F32, n *nn.Norm) *tensor.F32 {
	ep := tensor.Epilogue32{Bias: p.vec(l.B), Residual: res, Gamma: p.vec(n.Gamma), Beta: p.vec(n.Beta)}
	return tensor.MatMulEpilogue32(x, p.down[l.W], ep, p.arena)
}

func (p *pass32) gtAttention(q, k, v, e *tensor.F32, heads int) (att, eAvg *tensor.F32) {
	c := p.c
	return tensor.FusedSegmentAttention32(q, k, v, e, c.RecvIdx, c.SendIdx, c.EdgeIdx,
		c.recvSegments(), c.edgeSegments(), heads, tensor.LayoutHeadMajor, p.arena)
}

func (p *pass32) gatAttention(wh *tensor.F32, aL, aR *tensor.Tensor, heads int) *tensor.F32 {
	c := p.c
	return tensor.FusedAdditiveAttention32(wh, p.vec(aL), p.vec(aR),
		c.RecvIdx, c.SendIdx, c.recvSegments(), heads, p.arena)
}

func (p *pass32) addNormReLU(h, att *tensor.F32, n *nn.Norm) *tensor.F32 {
	sum := tensor.Add32(h, att, p.arena)
	out := tensor.BatchNorm32(sum, p.vec(n.Gamma), p.vec(n.Beta), p.arena)
	p.arena.PutF32(sum)
	tensor.ReLU32(out)
	return out
}

// sync is SyncDuplicates at float32.
func (p *pass32) sync(h *tensor.F32) *tensor.F32 {
	c := p.c
	if len(c.syncPositions) == 0 {
		return h
	}
	nodes := tensor.SegmentMean32(h, c.posToNode, c.numNodeSlots, p.arena)
	out := tensor.GatherRows32(nodes, c.posToNode, p.arena)
	p.arena.PutF32(nodes)
	p.arena.PutF32(h)
	return out
}

// readout is Readout at float32.
func (p *pass32) readout(h *tensor.F32) *tensor.F32 {
	c := p.c
	if c.posToNode == nil {
		return tensor.SegmentMean32(h, c.GraphSeg, c.NumGraphs, p.arena)
	}
	nodes := tensor.SegmentMean32(h, c.posToNode, c.numNodeSlots, p.arena)
	out := tensor.SegmentMean32(nodes, c.nodeGraph, c.NumGraphs, p.arena)
	p.arena.PutF32(nodes)
	return out
}

func (p *pass32) mlp(m *nn.MLP, x *tensor.F32) *tensor.F32 {
	h := p.linear(m.L1, x, true)
	out := p.linear(m.L2, h, false)
	p.arena.PutF32(h)
	return out
}

func (p *pass32) free(m *tensor.F32) { p.arena.PutF32(m) }
