package train

import (
	"testing"

	"mega/internal/compute"
	"mega/internal/datasets"
	"mega/internal/models"
	"mega/internal/nn"
	"mega/internal/tensor"
)

// BenchmarkTrainStep prices one training step at the benchmark's training
// configuration — GT, dim 64, 4 layers, 4 heads, fused attention, MEGA
// engine, one batch of 16 synthetic ZINC graphs — on one thread, with the
// step's heap allocation reported (the tape makes it small).
func BenchmarkTrainStep(b *testing.B) {
	prev := compute.SetMaxThreads(1)
	defer compute.SetMaxThreads(prev)
	ds, err := datasets.Generate("ZINC", datasets.Config{TrainSize: 16, ValSize: 1, TestSize: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Model: "GT", Engine: models.EngineMega, Dim: 64, Layers: 4, Heads: 4,
		BatchSize: 16, Seed: 42, Attention: "fused"}.withDefaults()
	ctxs, err := buildContexts(ds.Train, opts, nil, tensor.NewArena(), tensor.NewTape())
	if err != nil {
		b.Fatal(err)
	}
	model, err := NewModel(opts.Model, models.Config{Dim: opts.Dim, Layers: opts.Layers, Heads: opts.Heads,
		NodeTypes: ds.NumNodeTypes, EdgeTypes: ds.NumEdgeTypes, OutDim: 1, Seed: opts.Seed, Attention: opts.Attention})
	if err != nil {
		b.Fatal(err)
	}
	opt := nn.NewAdam(model.Params(), opts.LR)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := step(ds.Task, model, opt, ctxs[0]); !ok {
			b.Fatal("non-finite loss")
		}
	}
}
