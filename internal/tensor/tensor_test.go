package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// gradCheck compares autograd gradients of loss(x) against central-difference
// numerical gradients for every element of every input.
func gradCheck(t *testing.T, name string, inputs []*Tensor, loss func() *Tensor) {
	t.Helper()
	const eps = 1e-6
	const tol = 1e-4
	for _, in := range inputs {
		in.RequireGrad()
		in.Grad = nil // clear residue from earlier checks on shared tensors
	}
	out := loss()
	out.Backward()
	analytic := make([][]float64, len(inputs))
	for i, in := range inputs {
		analytic[i] = make([]float64, len(in.Data))
		copy(analytic[i], in.Grad)
	}
	for i, in := range inputs {
		for e := range in.Data {
			orig := in.Data[e]
			in.Data[e] = orig + eps
			up := loss().Item()
			in.Data[e] = orig - eps
			down := loss().Item()
			in.Data[e] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-analytic[i][e]) > tol*(1+math.Abs(numeric)) {
				t.Errorf("%s: input %d elem %d: analytic %v, numeric %v", name, i, e, analytic[i][e], numeric)
			}
		}
	}
}

func randTensor(rng *rand.Rand, rows, cols int) *Tensor {
	return Randn(rng, rows, cols, 1)
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched data length should panic")
		}
	}()
	New(2, 2, []float64{1})
}

func TestBasicAccessors(t *testing.T) {
	x := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if x.Rows() != 2 || x.Cols() != 3 || x.Size() != 6 {
		t.Error("shape accessors wrong")
	}
	if x.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v", x.At(1, 2))
	}
	x.Set(0, 0, 9)
	if x.At(0, 0) != 9 {
		t.Error("Set failed")
	}
	if !x.IsFinite() {
		t.Error("finite tensor reported non-finite")
	}
	x.Set(0, 0, math.NaN())
	if x.IsFinite() {
		t.Error("NaN not detected")
	}
}

func TestItemPanicsOnMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Item on matrix should panic")
		}
	}()
	Zeros(2, 2).Item()
}

func TestMatMulValues(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := New(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("matmul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	MatMul(Zeros(2, 3), Zeros(2, 3))
}

func TestDetachAndClone(t *testing.T) {
	x := New(1, 2, []float64{1, 2}).RequireGrad()
	d := x.Detach()
	if d.requiresGrad {
		t.Error("detach should drop grad requirement")
	}
	c := x.Clone()
	if !c.requiresGrad {
		t.Error("clone should preserve grad requirement")
	}
	c.Data[0] = 99
	if x.Data[0] == 99 {
		t.Error("clone shares storage")
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Backward on matrix should panic")
		}
	}()
	Zeros(2, 2).Backward()
}

func TestGradAccumulatesAcrossUses(t *testing.T) {
	// y = sum(x + x): dy/dx = 2 everywhere.
	x := New(1, 3, []float64{1, 2, 3}).RequireGrad()
	Sum(Add(x, x)).Backward()
	for i, g := range x.Grad {
		if g != 2 {
			t.Errorf("grad[%d] = %v, want 2", i, g)
		}
	}
}

func TestGradCheckMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 3, 4)
	b := randTensor(rng, 4, 2)
	gradCheck(t, "matmul", []*Tensor{a, b}, func() *Tensor { return Sum(MatMul(a, b)) })
}

func TestGradCheckElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 3, 3)
	b := randTensor(rng, 3, 3)
	gradCheck(t, "add", []*Tensor{a, b}, func() *Tensor { return Sum(Add(a, b)) })
	gradCheck(t, "sub", []*Tensor{a, b}, func() *Tensor { return Sum(Sub(a, b)) })
	gradCheck(t, "mul", []*Tensor{a, b}, func() *Tensor { return Sum(Mul(a, b)) })
	gradCheck(t, "scale", []*Tensor{a}, func() *Tensor { return Sum(Scale(a, -2.5)) })
}

func TestGradCheckActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 2, 5)
	gradCheck(t, "sigmoid", []*Tensor{a}, func() *Tensor { return Sum(Sigmoid(a)) })
	// Keep ReLU inputs away from the kink.
	for i := range a.Data {
		if math.Abs(a.Data[i]) < 0.1 {
			a.Data[i] = 0.5
		}
	}
	gradCheck(t, "relu", []*Tensor{a}, func() *Tensor { return Sum(ReLU(a)) })
}

func TestGradCheckBroadcasts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randTensor(rng, 4, 3)
	v := randTensor(rng, 1, 3)
	c := randTensor(rng, 4, 1)
	gradCheck(t, "addrowvec", []*Tensor{a, v}, func() *Tensor { return Sum(AddRowVec(a, v)) })
	gradCheck(t, "mulcolvec", []*Tensor{a, c}, func() *Tensor { return Sum(MulColVec(a, c)) })
}

func TestGradCheckIndexOps(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randTensor(rng, 5, 3)
	idx := []int32{0, 2, 2, 4, 1}
	w := randTensor(rng, 5, 3)
	gradCheck(t, "gather", []*Tensor{x}, func() *Tensor { return Sum(Mul(GatherRows(x, idx), w)) })

	y := randTensor(rng, 4, 2)
	sidx := []int32{0, 2, 2, 1}
	w2 := randTensor(rng, 3, 2)
	gradCheck(t, "scatteradd", []*Tensor{y}, func() *Tensor {
		return Sum(Mul(ScatterAddRows(y, sidx, 3), w2))
	})

	z := randTensor(rng, 6, 2)
	seg := []int32{0, 0, 1, 1, 1, 0}
	w3 := randTensor(rng, 2, 2)
	gradCheck(t, "segmentmean", []*Tensor{z}, func() *Tensor {
		return Sum(Mul(SegmentMean(z, seg, 2), w3))
	})
}

func TestSegmentMeanValues(t *testing.T) {
	x := New(3, 2, []float64{1, 2, 3, 4, 10, 20})
	out := SegmentMean(x, []int32{0, 0, 1}, 3)
	want := []float64{2, 3, 10, 20, 0, 0}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("segmentmean[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestGradCheckConcatCols(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randTensor(rng, 3, 2)
	b := randTensor(rng, 3, 4)
	w := randTensor(rng, 3, 6)
	gradCheck(t, "concat", []*Tensor{a, b}, func() *Tensor { return Sum(Mul(ConcatCols(a, b), w)) })
}

func TestGradCheckNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randTensor(rng, 4, 5)
	gamma := randTensor(rng, 1, 5)
	beta := randTensor(rng, 1, 5)
	w := randTensor(rng, 4, 5)
	gradCheck(t, "layernorm", []*Tensor{x, gamma, beta}, func() *Tensor {
		return Sum(Mul(LayerNorm(x, gamma, beta), w))
	})
	gradCheck(t, "batchnorm", []*Tensor{x, gamma, beta}, func() *Tensor {
		return Sum(Mul(BatchNorm(x, gamma, beta), w))
	})
}

func TestLayerNormRowStats(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randTensor(rng, 3, 16)
	out := LayerNorm(x, Full(1, 16, 1), Zeros(1, 16))
	for i := 0; i < 3; i++ {
		mean, vari := 0.0, 0.0
		for j := 0; j < 16; j++ {
			mean += out.At(i, j)
		}
		mean /= 16
		for j := 0; j < 16; j++ {
			d := out.At(i, j) - mean
			vari += d * d
		}
		vari /= 16
		if math.Abs(mean) > 1e-9 || math.Abs(vari-1) > 1e-3 {
			t.Errorf("row %d: mean %v var %v", i, mean, vari)
		}
	}
}

func TestGradCheckLosses(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pred := randTensor(rng, 4, 1)
	target := randTensor(rng, 4, 1)
	gradCheck(t, "mse", []*Tensor{pred}, func() *Tensor { return MSELoss(pred, target) })
	// Keep MAE away from the kink.
	for i := range pred.Data {
		if math.Abs(pred.Data[i]-target.Data[i]) < 0.1 {
			pred.Data[i] = target.Data[i] + 0.5
		}
	}
	gradCheck(t, "mae", []*Tensor{pred}, func() *Tensor { return MAELoss(pred, target) })

	logits := randTensor(rng, 3, 4)
	labels := []int{1, 0, 3}
	gradCheck(t, "crossentropy", []*Tensor{logits}, func() *Tensor {
		return CrossEntropyLoss(logits, labels)
	})
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := Zeros(2, 4)
	loss := CrossEntropyLoss(logits, []int{0, 3})
	if math.Abs(loss.Item()-math.Log(4)) > 1e-9 {
		t.Errorf("loss = %v, want ln4 = %v", loss.Item(), math.Log(4))
	}
}

func TestAccuracy(t *testing.T) {
	logits := New(3, 2, []float64{2, 1, 0, 3, 5, 4})
	if acc := Accuracy(logits, []int{0, 1, 0}); acc != 1 {
		t.Errorf("accuracy = %v, want 1", acc)
	}
	if acc := Accuracy(logits, []int{1, 0, 1}); acc != 0 {
		t.Errorf("accuracy = %v, want 0", acc)
	}
	if acc := Accuracy(Zeros(0, 2), nil); acc != 0 {
		t.Errorf("empty accuracy = %v", acc)
	}
}

func TestEmbedRows(t *testing.T) {
	table := New(3, 2, []float64{1, 2, 3, 4, 5, 6})
	out := EmbedRows(table, []int32{2, 0})
	want := []float64{5, 6, 1, 2}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("embed[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestDiamondGraphGradient(t *testing.T) {
	// x feeds two branches that rejoin: y = sum(sigmoid(x) ⊙ exp(x)).
	// Verifies the topological sweep handles shared subexpressions.
	rng := rand.New(rand.NewSource(14))
	x := randTensor(rng, 2, 3)
	gradCheck(t, "diamond", []*Tensor{x}, func() *Tensor {
		return Sum(Mul(Sigmoid(x), Exp(x)))
	})
}

func TestMeanMatchesSumOverN(t *testing.T) {
	x := New(2, 2, []float64{1, 2, 3, 4})
	if m := Mean(x).Item(); m != 2.5 {
		t.Errorf("mean = %v, want 2.5", m)
	}
}

func TestZeroGrad(t *testing.T) {
	x := New(1, 2, []float64{1, 2}).RequireGrad()
	Sum(x).Backward()
	x.ZeroGrad()
	for _, g := range x.Grad {
		if g != 0 {
			t.Error("ZeroGrad left residue")
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 256, 128, 1)
	w := Randn(rng, 128, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, w)
	}
}

func BenchmarkMatMulBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		a := Randn(rng, 128, 64, 1).RequireGrad()
		w := Randn(rng, 64, 64, 1).RequireGrad()
		Sum(MatMul(a, w)).Backward()
	}
}
