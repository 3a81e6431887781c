package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestOps2Values(t *testing.T) {
	a := New(2, 2, []float64{1, 2, 4, 8})
	if out := AddScalar(a, 3); out.At(1, 1) != 11 {
		t.Errorf("AddScalar = %v", out.Data)
	}
	if out := Reciprocal(a); out.At(1, 0) != 0.25 {
		t.Errorf("Reciprocal = %v", out.Data)
	}
	if out := Exp(Zeros(1, 2)); out.At(0, 0) != 1 {
		t.Errorf("Exp(0) = %v", out.Data)
	}
	b := New(2, 2, []float64{2, 2, 2, 2})
	if out := Div(a, b); out.At(1, 1) != 4 {
		t.Errorf("Div = %v", out.Data)
	}
	if out := RowSum(a); out.At(0, 0) != 3 || out.At(1, 0) != 12 {
		t.Errorf("RowSum = %v", out.Data)
	}
	if out := RowDot(a, b); out.At(0, 0) != 6 || out.At(1, 0) != 24 {
		t.Errorf("RowDot = %v", out.Data)
	}
	x := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	nc := NarrowCols(x, 1, 2)
	if nc.At(0, 0) != 2 || nc.At(1, 1) != 6 {
		t.Errorf("NarrowCols = %v", nc.Data)
	}
}

func TestOps2GradChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := randTensor(rng, 3, 4)
	// Keep away from zero for reciprocal stability.
	for i := range a.Data {
		if math.Abs(a.Data[i]) < 0.3 {
			a.Data[i] = 0.7
		}
	}
	b := randTensor(rng, 3, 4)
	for i := range b.Data {
		if math.Abs(b.Data[i]) < 0.3 {
			b.Data[i] = -0.8
		}
	}
	w := randTensor(rng, 3, 4)
	gradCheck(t, "addscalar", []*Tensor{a}, func() *Tensor { return Sum(Mul(AddScalar(a, 1.5), w)) })
	gradCheck(t, "reciprocal", []*Tensor{a}, func() *Tensor { return Sum(Mul(Reciprocal(a), w)) })
	gradCheck(t, "exp", []*Tensor{a}, func() *Tensor { return Sum(Mul(Exp(a), w)) })
	gradCheck(t, "div", []*Tensor{a, b}, func() *Tensor { return Sum(Mul(Div(a, b), w)) })

	w1 := randTensor(rng, 3, 1)
	gradCheck(t, "rowsum", []*Tensor{a}, func() *Tensor { return Sum(Mul(RowSum(a), w1)) })
	gradCheck(t, "rowdot", []*Tensor{a, b}, func() *Tensor { return Sum(Mul(RowDot(a, b), w1)) })

	w2 := randTensor(rng, 3, 2)
	gradCheck(t, "narrowcols", []*Tensor{a}, func() *Tensor { return Sum(Mul(NarrowCols(a, 1, 2), w2)) })
}

func TestNarrowColsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range NarrowCols should panic")
		}
	}()
	NarrowCols(Zeros(2, 3), 2, 2)
}
