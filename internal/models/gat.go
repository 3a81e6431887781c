package models

import (
	"math/rand"

	"mega/internal/nn"
	"mega/internal/tensor"
)

// GAT is the Graph Attention Network of Veličković et al. — the paper's
// reference [14] and the canonical graph-attention formulation MEGA
// accelerates. Each head computes per-pair scores
//
//	s_ij = LeakyReLU( a_l · W h_i + a_r · W h_j )
//
// normalised by softmax over each receiver's neighbours, aggregates
// α_ij · W h_j, and concatenates heads followed by an ELU-style
// nonlinearity (ReLU here). Edge features are not part of the original
// formulation; the shared edge-embedding stream passes through untouched.
//
// GAT is lighter than GT (one projection + two attention vectors per
// layer) but issues the same irregular per-edge operations, so it slots
// directly into the DGL-vs-MEGA comparison.
type GAT struct {
	cfg     Config
	enc     *encoder
	layers  []*gatLayer
	readout *nn.MLP
}

var _ Model = (*GAT)(nil)

type gatLayer struct {
	w *nn.Linear
	// aL/aR are the left/right attention vectors, one dk-column block per
	// head (stored as 1×d rows for broadcasting).
	aL *tensor.Tensor
	aR *tensor.Tensor
	bn *nn.Norm
}

// NewGAT constructs the model.
func NewGAT(cfg Config) *GAT {
	cfg.checkAttention()
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x6A7))
	m := &GAT{
		cfg:     cfg,
		enc:     newEncoder(rng, cfg),
		readout: nn.NewMLP(rng, cfg.Dim, cfg.Dim/2, cfg.OutDim),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.layers = append(m.layers, &gatLayer{
			w:  nn.NewLinear(rng, cfg.Dim, cfg.Dim),
			aL: tensor.Randn(rng, 1, cfg.Dim, 0.1).RequireGrad(),
			aR: tensor.Randn(rng, 1, cfg.Dim, 0.1).RequireGrad(),
			bn: nn.NewNorm(nn.BatchNorm, cfg.Dim),
		})
	}
	return m
}

// Name implements Model.
func (m *GAT) Name() string { return "GAT" }

// Config returns the model configuration.
func (m *GAT) Config() Config { return m.cfg }

// Params implements Model.
func (m *GAT) Params() []*tensor.Tensor {
	out := m.enc.params()
	for _, l := range m.layers {
		out = append(out, l.w.Params()...)
		out = append(out, l.aL, l.aR, l.bn.Gamma, l.bn.Beta)
	}
	return append(out, m.readout.Params()...)
}

// Forward implements Model.
func (m *GAT) Forward(ctx *Context) *tensor.Tensor {
	return gatForward[*tensor.Tensor](m, ctx, pass64{ctx})
}

// gatForward is the GAT forward at either precision. GAT ignores the edge
// embeddings, which embed builds anyway: the float64 side's profiled
// memcpy has always counted them.
//
// Each block's BatchNorm takes full-batch statistics, so at both
// precisions a graph's output depends on the other graphs batched with
// it: the serving batcher packs whatever requests are queued, so a served
// GAT answer depends on its co-batched requests. Only a batch of one
// graph answers for that graph alone.
func gatForward[M any](m *GAT, ctx *Context, p pass[M]) M {
	h, e := p.embed(m.enc)
	p.free(e)
	for _, l := range m.layers {
		// One kernel for score halves, leaky scores, softmax and
		// aggregation, then residual + batch norm + ReLU.
		ctx.Prof.LayerStart()
		wh := p.linear(l.w, h, false)
		att := p.gatAttention(wh, l.aL, l.aR, m.cfg.Heads)
		p.free(wh)
		out := p.addNormReLU(h, att, l.bn)
		p.free(att)
		p.free(h)
		h = p.sync(out)
	}
	return readoutHead(p, ctx, m.readout, h, m.cfg)
}

// CountOps reports operation statistics for this model over the context.
func (m *GAT) CountOps(ctx *Context) OpCounts { return countOps(m, ctx) }
