package models

import (
	"fmt"
	"math/rand"

	"mega/internal/nn"
	"mega/internal/tensor"
)

// Model is a graph-prediction network runnable over any Context.
type Model interface {
	// Forward produces one output row per member graph.
	Forward(ctx *Context) *tensor.Tensor
	// Params returns every trainable tensor.
	Params() []*tensor.Tensor
	// Name identifies the configuration ("GCN" or "GT").
	Name() string
}

// Config sizes a model.
type Config struct {
	// Dim is the hidden dimension d (the paper profiles 64 and 128).
	Dim int
	// Layers is the number of stacked attention blocks.
	Layers int
	// Heads is the attention head count (GT only).
	Heads int
	// NodeTypes/EdgeTypes size the input embedding vocabularies.
	NodeTypes int
	EdgeTypes int
	// OutDim is the prediction width: 1 for regression, #classes for
	// classification.
	OutDim int
	// Seed seeds parameter initialisation.
	Seed int64
	// Attention names the attention implementation. There is one — the
	// fused single-pass kernel of internal/tensor/attention.go — so the
	// only accepted values are "" and "fused"; the field survives for
	// callers and checkpoints that set it.
	Attention string
}

// checkAttention rejects a Config naming any attention implementation but
// the fused one, instead of silently running the fused one.
func (c Config) checkAttention() {
	if c.Attention != "" && c.Attention != "fused" {
		panic(fmt.Sprintf("models: unknown attention implementation %q (only \"fused\" exists)", c.Attention))
	}
}

// withDefaults fills unset fields with the benchmark-suite defaults.
func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = 64
	}
	if c.Layers == 0 {
		c.Layers = 4
	}
	if c.Heads == 0 {
		c.Heads = 4
	}
	if c.NodeTypes == 0 {
		c.NodeTypes = 32
	}
	if c.EdgeTypes == 0 {
		c.EdgeTypes = 8
	}
	if c.OutDim == 0 {
		c.OutDim = 1
	}
	return c
}

// encoder embeds categorical node and edge features into d-dim rows; shared
// by both models.
type encoder struct {
	node *nn.Embedding
	edge *nn.Embedding
}

func newEncoder(rng *rand.Rand, cfg Config) *encoder {
	return &encoder{
		node: nn.NewEmbedding(rng, cfg.NodeTypes, cfg.Dim),
		edge: nn.NewEmbedding(rng, cfg.EdgeTypes, cfg.Dim),
	}
}

func (e *encoder) forward(ctx *Context) (h, ee *tensor.Tensor) {
	h = ctx.Tape.EmbedRows(e.node.Table, ctx.NodeTypeIDs)
	ee = ctx.Tape.EmbedRows(e.edge.Table, ctx.EdgeTypeIDs)
	ctx.Prof.Memcpy(int64(h.Size()+ee.Size()) * 4)
	return h, ee
}

func (e *encoder) params() []*tensor.Tensor {
	return nn.CollectParams(e.node, e.edge)
}

// OpCounts tallies how many graph and neural operations one forward pass
// issues — the raw data behind Table I's scatter/gather/parameter rows.
type OpCounts struct {
	Params       int
	GatherCalls  int
	ScatterCalls int
	LinearCalls  int
}

// countingContext wraps a tiny context to count operation calls.
func countOps(m Model, ctx *Context) OpCounts {
	counter := &opCounter{}
	probe := *ctx
	probe.counter = counter
	_ = m.Forward(&probe)
	return OpCounts{
		Params:       nn.CountParams(m.Params()),
		GatherCalls:  counter.gathers,
		ScatterCalls: counter.scatters,
		LinearCalls:  counter.linears,
	}
}

// opCounter tallies abstract op invocations.
type opCounter struct {
	gathers  int
	scatters int
	linears  int
}
