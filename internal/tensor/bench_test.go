package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mega/internal/compute"
)

// Serial-vs-parallel kernel benchmarks. "Serial" pins the compute pool to
// one thread (the pre-pool code path: every kernel runs inline on the
// caller); "Parallel" opens it to every core. Because the kernels are
// bit-deterministic at any thread count, the two configurations compute
// identical results — these benchmarks measure pure scheduling win. They
// keep no record: benchmark/ reports tensor.matmul32_gflops and
// tensor.matmul64_gflops from its traced runs.

func benchMatMul(b *testing.B, threads, size int) {
	prev := compute.SetMaxThreads(threads)
	defer compute.SetMaxThreads(prev)
	x := randT(1001, size, size)
	w := randT(1002, size, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, w)
	}
	flops := 2 * float64(size) * float64(size) * float64(size)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkMatMulSerial128(b *testing.B)   { benchMatMul(b, 1, 128) }
func BenchmarkMatMulSerial256(b *testing.B)   { benchMatMul(b, 1, 256) }
func BenchmarkMatMulSerial512(b *testing.B)   { benchMatMul(b, 1, 512) }
func BenchmarkMatMulParallel128(b *testing.B) { benchMatMul(b, runtime.NumCPU(), 128) }
func BenchmarkMatMulParallel256(b *testing.B) { benchMatMul(b, runtime.NumCPU(), 256) }
func BenchmarkMatMulParallel512(b *testing.B) { benchMatMul(b, runtime.NumCPU(), 512) }

func benchMatMulBackward(b *testing.B, threads, size int) {
	prev := compute.SetMaxThreads(threads)
	defer compute.SetMaxThreads(prev)
	x := randT(1003, size, size).RequireGrad()
	w := randT(1004, size, size).RequireGrad()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.ZeroGrad()
		w.ZeroGrad()
		Sum(MatMul(x, w)).Backward()
	}
}

func BenchmarkMatMulBackwardSerial512(b *testing.B) { benchMatMulBackward(b, 1, 512) }
func BenchmarkMatMulBackwardParallel512(b *testing.B) {
	benchMatMulBackward(b, runtime.NumCPU(), 512)
}

// benchElementwise measures the flat-split ops on a tensor large enough
// to cross elemGrain many times over.
func benchElementwise(b *testing.B, threads int) {
	prev := compute.SetMaxThreads(threads)
	defer compute.SetMaxThreads(prev)
	x := randT(1005, 1024, 512)
	y := randT(1006, 1024, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Add(Mul(x, y), Sigmoid(x))
	}
}

func BenchmarkElementwiseSerial(b *testing.B)   { benchElementwise(b, 1) }
func BenchmarkElementwiseParallel(b *testing.B) { benchElementwise(b, runtime.NumCPU()) }

func benchLayerNorm(b *testing.B, threads int) {
	prev := compute.SetMaxThreads(threads)
	defer compute.SetMaxThreads(prev)
	x := randT(1007, 4096, 128).RequireGrad()
	g := Full(1, 128, 1).RequireGrad()
	bt := Zeros(1, 128).RequireGrad()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.ZeroGrad()
		g.ZeroGrad()
		bt.ZeroGrad()
		Sum(MatMulEpilogue(x, nil, Epilogue{Gamma: g, Beta: bt})).Backward()
	}
}

func BenchmarkLayerNormSerial(b *testing.B)   { benchLayerNorm(b, 1) }
func BenchmarkLayerNormParallel(b *testing.B) { benchLayerNorm(b, runtime.NumCPU()) }

// benchMatMul32 is the float32 fast-path counterpart of benchMatMul:
// same shapes, tape-free kernel, arena-pooled output. A non-nil tile runs
// the same row split on that tile body instead of the dispatched one.
func benchMatMul32(b *testing.B, threads, size int,
	tile func(a []float32, aStep int, b []float32, bStride int, o []float32, steps int)) {
	prev := compute.SetMaxThreads(threads)
	defer compute.SetMaxThreads(prev)
	rng := rand.New(rand.NewSource(1001))
	_, x := randF32Pair(rng, size, size)
	_, w := randF32Pair(rng, size, size)
	arena := NewArena()
	product := func() { arena.PutF32(MatMul32(x, w, arena)) }
	if tile != nil {
		out := make([]float32, size*size)
		product = func() {
			compute.ParallelGrain(size, workGrain(size*size), func(lo, hi int) {
				matmulRows(out, x.Data, w.Data, size, 1, size, size, lo, hi, tile)
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		product()
	}
	flops := 2 * float64(size) * float64(size) * float64(size)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchMatMul32Tiles runs benchMatMul32 through dispatch and on each
// float32 tile body the host has, so the SSE fallback keeps a number on
// an AVX2 host.
func benchMatMul32Tiles(b *testing.B, threads, size int) {
	b.Run("dispatch", func(b *testing.B) { benchMatMul32(b, threads, size, nil) })
	for _, k := range tile32Kernels() {
		b.Run(k.name, func(b *testing.B) { benchMatMul32(b, threads, size, k.tile) })
	}
}

func BenchmarkMatMul32Serial128(b *testing.B)   { benchMatMul32Tiles(b, 1, 128) }
func BenchmarkMatMul32Serial256(b *testing.B)   { benchMatMul32Tiles(b, 1, 256) }
func BenchmarkMatMul32Serial512(b *testing.B)   { benchMatMul32Tiles(b, 1, 512) }
func BenchmarkMatMul32Parallel128(b *testing.B) { benchMatMul32Tiles(b, runtime.NumCPU(), 128) }
func BenchmarkMatMul32Parallel256(b *testing.B) { benchMatMul32Tiles(b, runtime.NumCPU(), 256) }
func BenchmarkMatMul32Parallel512(b *testing.B) { benchMatMul32Tiles(b, runtime.NumCPU(), 512) }

// Fused segment attention at a serving-shaped workload (512 nodes, dim 64,
// 4 heads, band-style pair list): the one generic forward through its
// float64 (node-major) and float32 (head-major, SSE axpy) entry points.
const (
	benchAttnRows  = 512
	benchAttnDim   = 64
	benchAttnHeads = 4
)

func benchAttnInputs32(rng *rand.Rand) (q, k, v, ew *F32, recv, send, edge []int32, byRecv, bySend, byEdge *Segments) {
	E, P := 2*benchAttnRows, 6*benchAttnRows
	recv, send, edge = randomPairs(rng, benchAttnRows, E, P)
	byRecv = BuildSegments(recv, benchAttnRows)
	bySend = BuildSegments(send, benchAttnRows)
	byEdge = BuildSegments(edge, E)
	_, q = randF32Pair(rng, benchAttnRows, benchAttnDim)
	_, k = randF32Pair(rng, benchAttnRows, benchAttnDim)
	_, v = randF32Pair(rng, benchAttnRows, benchAttnDim)
	_, ew = randF32Pair(rng, E, benchAttnDim)
	return
}

func BenchmarkFusedAttention32(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	q, k, v, ew, recv, send, edge, byRecv, _, byEdge := benchAttnInputs32(rng)
	arena := NewArena()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		att, eo := FusedSegmentAttention32(q, k, v, ew, recv, send, edge, byRecv, byEdge, benchAttnHeads, LayoutHeadMajor, arena)
		arena.PutF32(att)
		arena.PutF32(eo)
	}
}

func BenchmarkFusedAttention64(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	q32, k32, v32, ew32, recv, send, edge, byRecv, bySend, byEdge := benchAttnInputs32(rng)
	q, k, v, ew := q32.Upcast(), k32.Upcast(), v32.Upcast(), ew32.Upcast()
	arena := NewArena()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FusedSegmentAttention(q, k, v, ew, recv, send, edge, byRecv, bySend, byEdge, benchAttnHeads, arena)
	}
}

// BenchmarkMatMulTrainShapes prices the matmul at the shapes a
// train_zinc_f64 step runs (about 700 path rows, model dim 64, FFN 128),
// one product at a time, so a kernel change has a local number at the
// workload's shapes as well as at cubes.
func BenchmarkMatMulTrainShapes(b *testing.B) {
	prev := compute.SetMaxThreads(1)
	defer compute.SetMaxThreads(prev)
	for _, s := range [][3]int{{700, 64, 64}, {700, 64, 128}, {700, 128, 64}} {
		m, k, n := s[0], s[1], s[2]
		x, w, g := randT(1008, m, k), randT(1009, k, n), randT(1010, m, n)
		x32, w32 := Downcast(x), Downcast(w)
		out, dx, dw := make([]float64, m*n), make([]float64, m*k), make([]float64, k*n)
		out32 := make([]float32, m*n)
		arena := NewArena()
		type product struct {
			name string
			fn   func()
		}
		products := []product{
			{"forward", func() { matmulRows(out, x.Data, w.Data, k, 1, k, n, 0, m, matmulTile64) }},
			{"dA", func() { matmulGradA(dx, g.Data, w.Data, m, k, n, false) }},
			{"dB", func() { matmulRows(dw, x.Data, g.Data, 1, k, m, n, 0, k, matmulTile64) }},
			{"forward32", func() { arena.PutF32(MatMul32(x32, w32, arena)) }},
		}
		// Each tile body the host has, bypassing dispatch, so the SSE/SSE2
		// fallbacks keep a number on an AVX2 host.
		for _, kern := range tile64Kernels() {
			tile := kern.tile
			products = append(products,
				product{"forward/" + kern.name, func() { matmulRows(out, x.Data, w.Data, k, 1, k, n, 0, m, tile) }},
				product{"dB/" + kern.name, func() { matmulRows(dw, x.Data, g.Data, 1, k, m, n, 0, k, tile) }})
		}
		for _, kern := range tile32Kernels() {
			tile := kern.tile
			products = append(products,
				product{"forward32/" + kern.name, func() { matmulRows(out32, x32.Data, w32.Data, k, 1, k, n, 0, m, tile) }})
		}
		for _, p := range products {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, p.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.fn()
				}
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
