package tensor

import (
	"math/rand"
	"testing"

	"mega/internal/compute"
)

// Parallel-vs-serial equivalence: every kernel must produce bit-identical
// forward values AND gradients at any thread count. The kernels partition
// work so that each output element (and each gradient accumulation order)
// is independent of how ranges are split across goroutines; these tests
// pin that guarantee with exact float64 equality, not tolerances.

// equivCase builds a tensor-valued result from clones of its inputs; the
// harness reduces it with weightedSum, backpropagates, and compares
// forward data, loss, and every input gradient across thread counts.
type equivCase struct {
	name   string
	inputs []*Tensor
	build  func(ins []*Tensor) *Tensor
}

// runAt executes the case under an n-thread budget and returns the forward
// data, scalar loss, and input gradients.
func runAt(n int, tc equivCase) (out []float64, loss float64, grads [][]float64) {
	prev := compute.SetMaxThreads(n)
	defer compute.SetMaxThreads(prev)
	ins := make([]*Tensor, len(tc.inputs))
	for i, in := range tc.inputs {
		ins[i] = in.Clone().RequireGrad()
	}
	y := tc.build(ins)
	l := weightedSum(y)
	l.Backward()
	grads = make([][]float64, len(ins))
	for i, in := range ins {
		grads[i] = in.Grad
	}
	return y.Data, l.Item(), grads
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParallelEquivalence(t *testing.T) {
	// Sizes sit above the parallel grains (elemGrain 4096, flopGrain 32768)
	// so the kernels genuinely split; small shapes would run inline and
	// test nothing.
	gatherIdx := make([]int32, 2000)
	scatterIdx := make([]int32, 2000)
	segIdx := make([]int32, 2000)
	idxRng := rand.New(rand.NewSource(11))
	for i := range gatherIdx {
		gatherIdx[i] = int32(idxRng.Intn(500))
		scatterIdx[i] = int32(idxRng.Intn(300))
		segIdx[i] = int32(idxRng.Intn(40))
	}
	ceLabels := make([]int, 500)
	for i := range ceLabels {
		ceLabels[i] = idxRng.Intn(10)
	}
	maeTarget := randT(200, 200, 100)

	cases := []equivCase{
		{name: "MatMul", inputs: []*Tensor{randT(50, 70, 90), randT(51, 90, 110)},
			build: func(ins []*Tensor) *Tensor { return MatMul(ins[0], ins[1]) }},
		{name: "MatMulTall", inputs: []*Tensor{randT(52, 600, 30), randT(53, 30, 70)},
			build: func(ins []*Tensor) *Tensor { return MatMul(ins[0], ins[1]) }},
		{name: "Elementwise", inputs: []*Tensor{randT(54, 130, 70), randAway(55, 130, 70, 0.3)},
			build: func(ins []*Tensor) *Tensor {
				return Div(Add(Mul(ins[0], ins[1]), Sigmoid(ins[0])), AddScalar(Exp(Scale(ins[1], -0.5)), 1))
			}},
		{name: "ReLUSigmoid", inputs: []*Tensor{randAway(56, 130, 70, 0.2)},
			build: func(ins []*Tensor) *Tensor { return Sigmoid(ReLU(ins[0])) }},
		{name: "LayerNorm", inputs: []*Tensor{randT(59, 1000, 64), randT(60, 1, 64), randT(61, 1, 64)},
			build: func(ins []*Tensor) *Tensor { return LayerNorm(ins[0], ins[1], ins[2]) }},
		{name: "BatchNorm", inputs: []*Tensor{randT(62, 1000, 64), randT(63, 1, 64), randT(64, 1, 64)},
			build: func(ins []*Tensor) *Tensor { return BatchNorm(ins[0], ins[1], ins[2]) }},
		{name: "AddRowVec", inputs: []*Tensor{randT(65, 600, 80), randT(66, 1, 80)},
			build: func(ins []*Tensor) *Tensor { return AddRowVec(ins[0], ins[1]) }},
		{name: "MulColVec", inputs: []*Tensor{randT(67, 600, 80), randT(68, 600, 1)},
			build: func(ins []*Tensor) *Tensor { return MulColVec(ins[0], ins[1]) }},
		{name: "GatherRows", inputs: []*Tensor{randT(69, 500, 64)},
			build: func(ins []*Tensor) *Tensor { return GatherRows(ins[0], gatherIdx) }},
		{name: "ScatterAddRows", inputs: []*Tensor{randT(70, 2000, 64)},
			build: func(ins []*Tensor) *Tensor { return ScatterAddRows(ins[0], scatterIdx, 300) }},
		{name: "SegmentMean", inputs: []*Tensor{randT(71, 2000, 64)},
			build: func(ins []*Tensor) *Tensor { return SegmentMean(ins[0], segIdx, 40) }},
		{name: "ConcatNarrow", inputs: []*Tensor{randT(72, 300, 40), randT(73, 300, 30)},
			build: func(ins []*Tensor) *Tensor {
				c := ConcatCols(ins[0], ins[1])
				return Add(NarrowCols(c, 10, 50), NarrowCols(c, 0, 50))
			}},
		{name: "RowOps", inputs: []*Tensor{randT(74, 600, 60), randT(75, 600, 60)},
			build: func(ins []*Tensor) *Tensor { return MulColVec(ins[0], RowDot(ins[0], ins[1])) }},
		{name: "CrossEntropy", inputs: []*Tensor{randT(76, 500, 10)},
			build: func(ins []*Tensor) *Tensor { return CrossEntropyLoss(ins[0], ceLabels) }},
		{name: "MAELoss", inputs: []*Tensor{randT(77, 200, 100)},
			build: func(ins []*Tensor) *Tensor { return MAELoss(ins[0], maeTarget) }},
		{name: "SumMean", inputs: []*Tensor{randT(78, 200, 100)},
			build: func(ins []*Tensor) *Tensor { return Add(Sum(ins[0]), Mean(ins[0])) }},
		{name: "AttentionBlock", inputs: []*Tensor{randT(79, 200, 64), randT(80, 64, 64), randT(81, 64, 200)},
			// A transformer-shaped composite: projection, scores, softmax
			// (exp over row sum, without the max shift: exp of these
			// scores is finite in float64),
			// weighted values, normalisation.
			build: func(ins []*Tensor) *Tensor {
				q := MatMul(ins[0], ins[1])
				e := Exp(Scale(MatMul(q, ins[2]), 0.125))
				att := MulColVec(e, Reciprocal(RowSum(e)))
				g := Full(1, 64, 1)
				b := Zeros(1, 64)
				return LayerNorm(MatMul(att, q), g, b)
			}},
	}

	threads := []int{2, 3, 8, 32}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			refOut, refLoss, refGrads := runAt(1, tc)
			for _, n := range threads {
				out, loss, grads := runAt(n, tc)
				if loss != refLoss {
					t.Errorf("threads=%d: loss %v != serial %v", n, loss, refLoss)
				}
				if !sameFloats(out, refOut) {
					t.Errorf("threads=%d: forward output differs from serial", n)
				}
				for i := range grads {
					if !sameFloats(grads[i], refGrads[i]) {
						t.Errorf("threads=%d: gradient of input %d differs from serial", n, i)
					}
				}
			}
		})
	}
}
