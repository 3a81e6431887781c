package models

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mega/internal/compute"
	"mega/internal/datasets"
	"mega/internal/graph"
	"mega/internal/tensor"
)

// Full-model benchmarks: one GT training step (forward + loss + backward)
// over a MEGA banded-attention context, serial pool vs all cores. The
// batch is 16 Erdős–Rényi graphs of 60 nodes — molecular-benchmark scale.

func benchInstances(b *testing.B) []datasets.Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(21))
	insts := make([]datasets.Instance, 16)
	for i := range insts {
		g := graph.ErdosRenyiM(rng, 60, 180)
		nf := make([]int32, g.NumNodes())
		for j := range nf {
			nf[j] = int32(rng.Intn(8))
		}
		ef := make([]int32, g.NumEdges())
		for j := range ef {
			ef[j] = int32(rng.Intn(4))
		}
		insts[i] = datasets.Instance{G: g, NodeFeat: nf, EdgeFeat: ef, Target: rng.NormFloat64()}
	}
	return insts
}

func benchMegaStep(b *testing.B, threads, dim int) {
	prev := compute.SetMaxThreads(threads)
	defer compute.SetMaxThreads(prev)
	insts := benchInstances(b)
	ctx, err := NewMegaContext(insts, MegaOptions{}, nil, dim)
	if err != nil {
		b.Fatal(err)
	}
	model := NewGT(Config{
		Dim: dim, Layers: 4, Heads: 4,
		NodeTypes: 8, EdgeTypes: 4, OutDim: 1, Seed: 1,
	})
	params := model.Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range params {
			p.ZeroGrad()
		}
		out := model.Forward(ctx)
		tensor.MAELoss(out, ctx.Targets).Backward()
	}
}

func BenchmarkMegaGTStepSerial64(b *testing.B)    { benchMegaStep(b, 1, 64) }
func BenchmarkMegaGTStepParallel64(b *testing.B)  { benchMegaStep(b, runtime.NumCPU(), 64) }
func BenchmarkMegaGTStepSerial128(b *testing.B)   { benchMegaStep(b, 1, 128) }
func BenchmarkMegaGTStepParallel128(b *testing.B) { benchMegaStep(b, runtime.NumCPU(), 128) }

// benchMegaPreprocess isolates the CPU preprocessing fan-out (traversal +
// band construction + context assembly), the stage NewMegaContext
// parallelises per instance.
func benchMegaPreprocess(b *testing.B, threads int) {
	prev := compute.SetMaxThreads(threads)
	defer compute.SetMaxThreads(prev)
	insts := benchInstances(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewMegaContext(insts, MegaOptions{}, nil, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMegaPreprocessSerial(b *testing.B)   { benchMegaPreprocess(b, 1) }
func BenchmarkMegaPreprocessParallel(b *testing.B) { benchMegaPreprocess(b, runtime.NumCPU()) }

// Per-layer attention benchmarks: forward + backward of the attention
// block alone (projections and FFNs excluded — they are identical dense
// matmuls either way and would drown the comparison), fused kernel vs
// staged pipeline, on both engines' pair lists. Allocation counts are
// part of the result: the fused path with an arena is near allocation-
// free in steady state, the staged path builds its whole pair-major
// intermediate chain every step.
func benchAttentionContext(b *testing.B, engine EngineKind) *Context {
	b.Helper()
	insts := benchInstances(b)
	var ctx *Context
	var err error
	if engine == EngineMega {
		ctx, err = NewMegaContext(insts, MegaOptions{}, nil, 64)
	} else {
		ctx, err = NewDGLContext(insts, nil, 64)
	}
	if err != nil {
		b.Fatal(err)
	}
	ctx.Scratch = tensor.NewArena()
	return ctx
}

func benchAttentionGT(b *testing.B, engine EngineKind, fused bool) {
	ctx := benchAttentionContext(b, engine)
	const d, heads = 64, 4
	dk := d / heads
	rng := rand.New(rand.NewSource(7))
	qh := tensor.Randn(rng, ctx.NumRows, d, 0.5).RequireGrad()
	kh := tensor.Randn(rng, ctx.NumRows, d, 0.5).RequireGrad()
	vh := tensor.Randn(rng, ctx.NumRows, d, 0.5).RequireGrad()
	eh := tensor.Randn(rng, ctx.NumEdges, d, 0.5).RequireGrad()
	leaves := []*tensor.Tensor{qh, kh, vh, eh}
	step := func() {
		for _, p := range leaves {
			p.ZeroGrad()
		}
		var att, edgeAvg *tensor.Tensor
		if fused {
			att, edgeAvg = ctx.FusedGTAttention(qh, kh, vh, eh, heads)
		} else {
			qp := ctx.GatherRecv(qh)
			kp := ctx.GatherSend(kh)
			vp := ctx.GatherSend(vh)
			ep := ctx.GatherEdges(eh)
			kmod := tensor.Mul(kp, ep)
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
			edgeAvg = ctx.EdgeMean(kmod)
		}
		tensor.Add(tensor.Sum(att), tensor.Sum(edgeAvg)).Backward()
	}
	step() // warm the arena so the measured loop sees steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func benchAttentionGAT(b *testing.B, engine EngineKind, fused bool) {
	ctx := benchAttentionContext(b, engine)
	const d, heads = 64, 4
	rng := rand.New(rand.NewSource(8))
	wh := tensor.Randn(rng, ctx.NumRows, d, 0.5).RequireGrad()
	aL := tensor.Randn(rng, 1, d, 0.1).RequireGrad()
	aR := tensor.Randn(rng, 1, d, 0.1).RequireGrad()
	leaves := []*tensor.Tensor{wh, aL, aR}
	step := func() {
		for _, p := range leaves {
			p.ZeroGrad()
		}
		var att *tensor.Tensor
		if fused {
			att = ctx.FusedGATAttention(wh, aL, aR, heads)
		} else {
			att = gatAttentionStaged(ctx, wh, aL, aR, heads)
		}
		tensor.Sum(att).Backward()
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkForwardF32 prices the frozen f32 GT forward alone at the served
// configuration (dim 64, 4 layers, 4 heads) on one random tree plus chords
// of each of the serving benchmark's size classes: the forward_f32 span's
// work without a whole serving run around it.
func BenchmarkForwardF32(b *testing.B) {
	m, err := PrepareF32(NewGT(Config{Dim: 64, Layers: 4, Heads: 4, NodeTypes: 8, EdgeTypes: 4, OutDim: 1, Seed: 42}))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	for _, sc := range []struct{ nodes, chords int }{{32, 6}, {96, 18}, {224, 40}} {
		ctx, err := NewMegaContext([]datasets.Instance{treeChordsInstance(rng, sc.nodes, sc.chords)}, MegaOptions{}, nil, 64)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", sc.nodes), func(b *testing.B) {
			arena := tensor.NewArena()
			arena.PutF32(m.Forward(ctx, arena)) // warm the arena's buckets
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena.PutF32(m.Forward(ctx, arena))
			}
		})
	}
}

func BenchmarkAttentionGTMegaFused(b *testing.B)   { benchAttentionGT(b, EngineMega, true) }
func BenchmarkAttentionGTMegaStaged(b *testing.B)  { benchAttentionGT(b, EngineMega, false) }
func BenchmarkAttentionGTDGLFused(b *testing.B)    { benchAttentionGT(b, EngineDGL, true) }
func BenchmarkAttentionGTDGLStaged(b *testing.B)   { benchAttentionGT(b, EngineDGL, false) }
func BenchmarkAttentionGATMegaFused(b *testing.B)  { benchAttentionGAT(b, EngineMega, true) }
func BenchmarkAttentionGATMegaStaged(b *testing.B) { benchAttentionGAT(b, EngineMega, false) }
func BenchmarkAttentionGATDGLFused(b *testing.B)   { benchAttentionGAT(b, EngineDGL, true) }
func BenchmarkAttentionGATDGLStaged(b *testing.B)  { benchAttentionGAT(b, EngineDGL, false) }
