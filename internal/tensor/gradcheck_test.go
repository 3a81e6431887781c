package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Numeric gradient checking: every analytic backward pass is compared
// against a central-difference estimate. A case builds a scalar loss from
// fresh clones of its input templates; the harness runs the analytic
// backward once, then re-evaluates the loss at x±eps for every input
// element and compares.
//
// Central differences have truncation error O(eps²) and roundoff error
// O(machEps/eps); eps = 1e-5 on O(1) values keeps both near 1e-10, far
// below the relative tolerance used here.

type gradCase struct {
	name string
	// inputs are the gradient-checked templates; build receives clones
	// (with grad enabled on the analytic pass) and returns a 1×1 loss.
	// Constants that carry no gradient (targets, labels, masks) are
	// captured by the closure instead.
	inputs []*Tensor
	build  func(ins []*Tensor) *Tensor
	tol    float64 // relative tolerance (default 1e-6)
}

const gradEps = 1e-5

func checkGradients(t *testing.T, tc gradCase) {
	t.Helper()
	tol := tc.tol
	if tol == 0 {
		tol = 1e-6
	}

	// Analytic pass.
	ins := make([]*Tensor, len(tc.inputs))
	for i, in := range tc.inputs {
		ins[i] = in.Clone().RequireGrad()
	}
	loss := tc.build(ins)
	if loss.Rows() != 1 || loss.Cols() != 1 {
		t.Fatalf("%s: loss is %dx%d, want 1x1", tc.name, loss.Rows(), loss.Cols())
	}
	loss.Backward()

	// Numeric pass, one element at a time.
	eval := func(pi, e int, v float64) float64 {
		probe := make([]*Tensor, len(tc.inputs))
		for i, in := range tc.inputs {
			probe[i] = in.Clone()
		}
		probe[pi].Data[e] = v
		return tc.build(probe).Item()
	}
	for pi, in := range ins {
		if in.Grad == nil {
			t.Errorf("%s: input %d has no gradient after Backward", tc.name, pi)
			continue
		}
		for e := range in.Data {
			orig := tc.inputs[pi].Data[e]
			num := (eval(pi, e, orig+gradEps) - eval(pi, e, orig-gradEps)) / (2 * gradEps)
			got := in.Grad[e]
			scale := math.Max(1, math.Max(math.Abs(got), math.Abs(num)))
			if diff := math.Abs(got - num); diff > tol*scale {
				t.Errorf("%s: input %d elem %d: analytic %.10g, numeric %.10g (diff %.3g)",
					tc.name, pi, e, got, num, diff)
			}
		}
	}
}

// weightedSum reduces a tensor-valued op to a scalar with fixed non-uniform
// weights, so gradient errors cannot cancel across elements the way they
// would under a plain Sum.
func weightedSum(y *Tensor) *Tensor {
	w := Zeros(y.Rows(), y.Cols())
	for i := range w.Data {
		w.Data[i] = 1.5 + math.Cos(float64(i))
	}
	return Sum(Mul(y, w))
}

// randT returns a seeded rows×cols standard-normal tensor.
func randT(seed int64, rows, cols int) *Tensor {
	return Randn(rand.New(rand.NewSource(seed)), rows, cols, 1)
}

// randAway returns values with |x| ≥ margin, for ops with kinks or poles
// at zero (ReLU, Reciprocal, Div).
func randAway(seed int64, rows, cols int, margin float64) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := Zeros(rows, cols)
	for i := range t.Data {
		v := margin + rng.Float64()
		if rng.Intn(2) == 0 {
			v = -v
		}
		t.Data[i] = v
	}
	return t
}

func TestGradients(t *testing.T) {
	gatherIdx := []int32{0, 3, 1, 3, 4, 0, 2}
	scatterIdx := []int32{2, 0, 1, 0, 3, 2, 1}
	segIdx := []int32{0, 0, 1, 2, 2, 2, 4} // segment 3 deliberately empty
	embedIDs := []int32{1, 0, 2, 1, 1, 3}
	ceLabels := []int{2, 0, 3, 1, 2}

	maeTarget := randT(103, 6, 3)
	maePred := maeTarget.Clone()
	for i := range maePred.Data {
		// Keep |pred−target| ≥ 0.3 so no perturbation crosses the kink.
		if i%2 == 0 {
			maePred.Data[i] += 0.3 + 0.1*float64(i%5)
		} else {
			maePred.Data[i] -= 0.3 + 0.1*float64(i%7)
		}
	}

	cases := []gradCase{
		{name: "MatMul", inputs: []*Tensor{randT(1, 5, 7), randT(2, 7, 4)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(MatMul(ins[0], ins[1])) }},
		{name: "Add", inputs: []*Tensor{randT(3, 6, 5), randT(4, 6, 5)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(Add(ins[0], ins[1])) }},
		{name: "Sub", inputs: []*Tensor{randT(5, 6, 5), randT(6, 6, 5)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(Sub(ins[0], ins[1])) }},
		{name: "Mul", inputs: []*Tensor{randT(7, 6, 5), randT(8, 6, 5)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(Mul(ins[0], ins[1])) }},
		{name: "Div", inputs: []*Tensor{randT(9, 6, 5), randAway(10, 6, 5, 0.5)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(Div(ins[0], ins[1])) }},
		{name: "Scale", inputs: []*Tensor{randT(11, 4, 6)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(Scale(ins[0], -1.7)) }},
		{name: "AddScalar", inputs: []*Tensor{randT(12, 4, 6)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(AddScalar(ins[0], 2.5)) }},
		{name: "Reciprocal", inputs: []*Tensor{randAway(13, 4, 6, 0.5)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(Reciprocal(ins[0])) }},
		{name: "Exp", inputs: []*Tensor{randT(14, 4, 6)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(Exp(ins[0])) }},
		{name: "Sigmoid", inputs: []*Tensor{randT(15, 4, 6)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(Sigmoid(ins[0])) }},
		{name: "ReLU", inputs: []*Tensor{randAway(17, 4, 6, 0.2)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(ReLU(ins[0])) }},
		{name: "AddRowVec", inputs: []*Tensor{randT(18, 6, 5), randT(19, 1, 5)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(AddRowVec(ins[0], ins[1])) }},
		{name: "MulColVec", inputs: []*Tensor{randT(20, 6, 5), randT(21, 6, 1)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(MulColVec(ins[0], ins[1])) }},
		{name: "Sum", inputs: []*Tensor{randT(24, 5, 7)},
			build: func(ins []*Tensor) *Tensor { return Sum(ins[0]) }},
		{name: "Mean", inputs: []*Tensor{randT(25, 5, 7)},
			build: func(ins []*Tensor) *Tensor { return Mean(ins[0]) }},
		{name: "RowSum", inputs: []*Tensor{randT(26, 5, 7)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(RowSum(ins[0])) }},
		{name: "RowDot", inputs: []*Tensor{randT(27, 5, 7), randT(28, 5, 7)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(RowDot(ins[0], ins[1])) }},
		{name: "ConcatCols", inputs: []*Tensor{randT(29, 5, 3), randT(30, 5, 2), randT(31, 5, 4)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(ConcatCols(ins[0], ins[1], ins[2])) }},
		{name: "NarrowCols", inputs: []*Tensor{randT(32, 5, 7)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(NarrowCols(ins[0], 2, 3)) }},
		{name: "LayerNorm", tol: 1e-5,
			inputs: []*Tensor{randT(34, 7, 6), AddScalar(randT(35, 1, 6), 1.5).Detach(), randT(36, 1, 6)},
			build:  func(ins []*Tensor) *Tensor { return weightedSum(LayerNorm(ins[0], ins[1], ins[2])) }},
		{name: "MatMulEpilogue/bias", inputs: []*Tensor{randT(50, 5, 7), randT(51, 7, 4), randT(52, 1, 4)},
			build: func(ins []*Tensor) *Tensor {
				return weightedSum(MatMulEpilogue(ins[0], ins[1], Epilogue{Bias: ins[2]}))
			}},
		{name: "MatMulEpilogue/bias+relu", inputs: []*Tensor{randT(53, 5, 7), randT(54, 7, 4), randT(55, 1, 4)},
			build: func(ins []*Tensor) *Tensor {
				return weightedSum(MatMulEpilogue(ins[0], ins[1], Epilogue{Bias: ins[2], ReLU: true}))
			}},
		{name: "MatMulEpilogue/bias+residual+norm", tol: 1e-5,
			inputs: []*Tensor{randT(56, 7, 5), randT(57, 5, 6), randT(58, 1, 6), randT(59, 7, 6),
				AddScalar(randT(60, 1, 6), 1.5).Detach(), randT(61, 1, 6)},
			build: func(ins []*Tensor) *Tensor {
				return weightedSum(MatMulEpilogue(ins[0], ins[1],
					Epilogue{Bias: ins[2], Residual: ins[3], Gamma: ins[4], Beta: ins[5]}))
			}},
		{name: "MatMulEpilogue/norm", tol: 1e-5,
			inputs: []*Tensor{randT(62, 7, 6), AddScalar(randT(63, 1, 6), 1.5).Detach(), randT(64, 1, 6)},
			build: func(ins []*Tensor) *Tensor {
				return weightedSum(MatMulEpilogue(ins[0], nil, Epilogue{Gamma: ins[1], Beta: ins[2]}))
			}},
		{name: "BatchNorm", tol: 1e-5,
			inputs: []*Tensor{randT(37, 7, 6), AddScalar(randT(38, 1, 6), 1.5).Detach(), randT(39, 1, 6)},
			build:  func(ins []*Tensor) *Tensor { return weightedSum(BatchNorm(ins[0], ins[1], ins[2])) }},
		{name: "GatherRows", inputs: []*Tensor{randT(40, 5, 4)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(GatherRows(ins[0], gatherIdx)) }},
		{name: "ScatterAddRows", inputs: []*Tensor{randT(41, 7, 4)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(ScatterAddRows(ins[0], scatterIdx, 4)) }},
		{name: "SegmentMean", inputs: []*Tensor{randT(42, 7, 4)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(SegmentMean(ins[0], segIdx, 5)) }},
		{name: "EmbedRows", inputs: []*Tensor{randT(45, 4, 5)},
			build: func(ins []*Tensor) *Tensor { return weightedSum(EmbedRows(ins[0], embedIDs)) }},
		{name: "MSELoss", inputs: []*Tensor{randT(46, 6, 3)},
			build: func(ins []*Tensor) *Tensor { return MSELoss(ins[0], randT(103, 6, 3)) }},
		{name: "MAELoss", inputs: []*Tensor{maePred},
			build: func(ins []*Tensor) *Tensor { return MAELoss(ins[0], maeTarget) }},
		{name: "CrossEntropyLoss", inputs: []*Tensor{randT(47, 5, 4)},
			build: func(ins []*Tensor) *Tensor { return CrossEntropyLoss(ins[0], ceLabels) }},
		{name: "Composite", tol: 1e-5,
			// A deeper graph exercising grad accumulation through shared
			// tensors: x feeds both branches.
			inputs: []*Tensor{randT(48, 5, 6), randT(49, 6, 6)},
			build: func(ins []*Tensor) *Tensor {
				h := MatMul(ins[0], ins[1])
				return weightedSum(Add(Sigmoid(h), Mul(h, h)))
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { checkGradients(t, tc) })
	}
}
