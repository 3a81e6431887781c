package models

import (
	"math/rand"

	"mega/internal/nn"
	"mega/internal/tensor"
)

// GT is the Graph Transformer of Dwivedi & Bresson (§III-1): multi-head
// scaled dot-product attention restricted to graph edges, with edge
// features modulating the scores, followed by residual + layer norm and a
// position-wise FFN on both node and edge streams.
//
// Per layer: Q, K, V, O projections (4d²), edge projection W_e (d²), edge
// output O_e (d²), and two d→2d→d FFNs (4d² each) — the 14d² parameter
// volume of Table I. The per-pair score of head a is
//
//	s_ij = ( q_i^a · (k_j^a ⊙ ŵ_ij^a) ) / √d_a,  ŵ = W_e·e_ij
//
// normalised by softmax over each receiver's pairs.
type GT struct {
	cfg     Config
	enc     *encoder
	layers  []*gtLayer
	readout *nn.MLP
}

var _ Model = (*GT)(nil)

type gtLayer struct {
	q, k, v, o *nn.Linear
	we, oe     *nn.Linear
	ffnH1      *nn.Linear
	ffnH2      *nn.Linear
	ffnE1      *nn.Linear
	ffnE2      *nn.Linear
	lnH1, lnH2 *nn.Norm
	lnE1, lnE2 *nn.Norm
}

// NewGT constructs the model.
func NewGT(cfg Config) *GT {
	cfg.checkAttention()
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x67))
	m := &GT{
		cfg:     cfg,
		enc:     newEncoder(rng, cfg),
		readout: nn.NewMLP(rng, cfg.Dim, cfg.Dim/2, cfg.OutDim),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.layers = append(m.layers, &gtLayer{
			q:     nn.NewLinear(rng, cfg.Dim, cfg.Dim),
			k:     nn.NewLinear(rng, cfg.Dim, cfg.Dim),
			v:     nn.NewLinear(rng, cfg.Dim, cfg.Dim),
			o:     nn.NewLinear(rng, cfg.Dim, cfg.Dim),
			we:    nn.NewLinear(rng, cfg.Dim, cfg.Dim),
			oe:    nn.NewLinear(rng, cfg.Dim, cfg.Dim),
			ffnH1: nn.NewLinear(rng, cfg.Dim, 2*cfg.Dim),
			ffnH2: nn.NewLinear(rng, 2*cfg.Dim, cfg.Dim),
			ffnE1: nn.NewLinear(rng, cfg.Dim, 2*cfg.Dim),
			ffnE2: nn.NewLinear(rng, 2*cfg.Dim, cfg.Dim),
			lnH1:  nn.NewNorm(nn.LayerNorm, cfg.Dim),
			lnH2:  nn.NewNorm(nn.LayerNorm, cfg.Dim),
			lnE1:  nn.NewNorm(nn.LayerNorm, cfg.Dim),
			lnE2:  nn.NewNorm(nn.LayerNorm, cfg.Dim),
		})
	}
	return m
}

// Name implements Model.
func (m *GT) Name() string { return "GT" }

// Config returns the model configuration.
func (m *GT) Config() Config { return m.cfg }

// Params implements Model.
func (m *GT) Params() []*tensor.Tensor {
	out := m.enc.params()
	for _, l := range m.layers {
		out = append(out, nn.CollectParams(
			l.q, l.k, l.v, l.o, l.we, l.oe,
			l.ffnH1, l.ffnH2, l.ffnE1, l.ffnE2,
			l.lnH1, l.lnH2, l.lnE1, l.lnE2)...)
	}
	return append(out, m.readout.Params()...)
}

// Forward implements Model.
func (m *GT) Forward(ctx *Context) *tensor.Tensor {
	return gtForward[*tensor.Tensor](m, ctx, pass64{ctx})
}

// gtForward is the GT forward at either precision: the embeddings, the
// blocks, then the readout head.
func gtForward[M any](m *GT, ctx *Context, p pass[M]) M {
	h, e := p.embed(m.enc)
	for _, l := range m.layers {
		h, e = gtBlock(p, ctx, l, h, e, m.cfg)
	}
	p.free(e)
	return readoutHead(p, ctx, m.readout, h, m.cfg)
}

// gtBlock runs one GT block, consuming h and e: the q/k/v/ê projections,
// one fused kernel for the whole attention block (plus the per-edge mean of
// k⊙ê the edge stream consumes), then the node and edge streams. The
// streams are separate stages so the shard engine can run each on its own
// chunk-local context.
func gtBlock[M any](p pass[M], ctx *Context, l *gtLayer, h, e M, cfg Config) (hOut, eOut M) {
	ctx.Prof.LayerStart()
	qh := p.linear(l.q, h, false)
	kh := p.linear(l.k, h, false)
	vh := p.linear(l.v, h, false)
	eh := p.linear(l.we, e, false)
	att, edgeAvg := p.gtAttention(qh, kh, vh, eh, cfg.Heads)
	p.free(qh)
	p.free(kh)
	p.free(vh)
	p.free(eh)

	hOut = stream(p, h, att, l.o, l.ffnH1, l.ffnH2, l.lnH1, l.lnH2)

	// The kernel computed the per-edge reduction already; account it here,
	// at the staged pipeline's emission point (the simulated L2 is
	// order-sensitive, so emission order is part of the contract).
	ctx.NoteEdgeMean(cfg.Dim)
	eOut = stream(p, e, edgeAvg, l.oe, l.ffnE1, l.ffnE2, l.lnE1, l.lnE2)

	return p.sync(hOut), eOut
}

// stream runs one half of the block on its attention output x — the node
// rows' att (o, ffnH*, lnH*) or the edges' mean of k⊙ê (oe, ffnE*, lnE*) —
// consuming res and x: O projection, residual + LN, FFN, residual + LN.
// That is three matmuls, with every bias, ReLU, residual add and LayerNorm
// in their row epilogues. Every op is row-local, so running it over a
// chunk's rows produces exactly the chunk's stripe of the full result.
func stream[M any](p pass[M], res, x M, o, ffn1, ffn2 *nn.Linear, ln1, ln2 *nn.Norm) M {
	h1 := p.linearNorm(o, x, res, ln1)
	p.free(x)
	p.free(res)
	f := p.linear(ffn1, h1, true)
	out := p.linearNorm(ffn2, f, h1, ln2)
	p.free(f)
	p.free(h1)
	return out
}

// CountOps reports Table I's operation statistics for this model over the
// given context.
func (m *GT) CountOps(ctx *Context) OpCounts { return countOps(m, ctx) }
