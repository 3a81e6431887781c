package models

import (
	"mega/internal/nn"
	"mega/internal/tensor"
)

// pass is what a model's forward needs from a precision: the layer-level
// ops GT and GAT are written against once (gtForward, gatForward), over the
// precision's matrix type M. pass64 runs the taped, profiled Context ops;
// pass32 (f32.go) runs the tape-free float32 kernels over downcast weights.
// Weights reach both as the float64 model's own layers and tensors. No op
// frees its operands except sync, which consumes h when it returns a new
// matrix.
type pass[M any] interface {
	// embed looks up the node and edge rows of the input features.
	embed(enc *encoder) (h, e M)
	// linear is x·W + b, then max(·, 0) when relu is set.
	linear(l *nn.Linear, x M, relu bool) M
	// linearNorm is LayerNorm(res + x·W + b) with n's affine.
	linearNorm(l *nn.Linear, x, res M, n *nn.Norm) M
	// gtAttention is GT's attention block over the context's pairs, plus
	// the per-edge mean of k⊙ê.
	gtAttention(q, k, v, e M, heads int) (att, eAvg M)
	// gatAttention is GAT's additive attention over the context's pairs.
	gatAttention(wh M, aL, aR *tensor.Tensor, heads int) M
	// addNormReLU is ReLU(BatchNorm(h + att)) with n's affine.
	addNormReLU(h, att M, n *nn.Norm) M
	// sync averages the duplicate rows of every node (MEGA's revisits).
	sync(h M) M
	// readout mean-pools rows to one row per member graph.
	readout(h M) M
	// mlp runs the readout head.
	mlp(m *nn.MLP, x M) M
	// free releases m's scratch. It takes one value: a variadic call
	// through an interface allocates its slice every time.
	free(m M)
}

// pass64 is the float64 pass: the Context's taped ops. Its single pointer
// field lets it sit in an interface without an allocation.
type pass64 struct{ c *Context }

func (p pass64) embed(enc *encoder) (h, e *tensor.Tensor) { return enc.forward(p.c) }

func (p pass64) linear(l *nn.Linear, x *tensor.Tensor, relu bool) *tensor.Tensor {
	return p.c.LinearEpilogue(l, x, tensor.Epilogue{ReLU: relu})
}

func (p pass64) linearNorm(l *nn.Linear, x, res *tensor.Tensor, n *nn.Norm) *tensor.Tensor {
	return p.c.LinearEpilogue(l, x, n.AddNorm(res))
}

func (p pass64) gtAttention(q, k, v, e *tensor.Tensor, heads int) (att, eAvg *tensor.Tensor) {
	return p.c.FusedGTAttention(q, k, v, e, heads)
}

func (p pass64) gatAttention(wh, aL, aR *tensor.Tensor, heads int) *tensor.Tensor {
	return p.c.FusedGATAttention(wh, aL, aR, heads)
}

func (p pass64) addNormReLU(h, att *tensor.Tensor, n *nn.Norm) *tensor.Tensor {
	return p.c.Act(tensor.ReLU, p.c.Norm(n, tensor.Add(h, att)))
}

func (p pass64) sync(h *tensor.Tensor) *tensor.Tensor    { return p.c.SyncDuplicates(h) }
func (p pass64) readout(h *tensor.Tensor) *tensor.Tensor { return p.c.Readout(h) }

// mlp is the readout head, which (unlike linear) neither emits Prof.Linear
// nor counts as a linear: the forward emits the head's sgemm itself.
func (p pass64) mlp(m *nn.MLP, x *tensor.Tensor) *tensor.Tensor { return m.Forward(x) }

func (p pass64) free(*tensor.Tensor) {}

// readoutHead pools the final rows h per graph (consuming h) and runs the
// readout MLP: the tail of the GT and GAT forwards.
func readoutHead[M any](p pass[M], ctx *Context, head *nn.MLP, h M, cfg Config) M {
	pooled := p.readout(h)
	p.free(h)
	ctx.Prof.Linear(ctx.NumGraphs, cfg.Dim, cfg.OutDim)
	out := p.mlp(head, pooled)
	p.free(pooled)
	return out
}
