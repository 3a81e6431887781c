package nn

import (
	"math"
	"math/rand"
	"testing"

	"mega/internal/tensor"
)

func TestLinearShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3)
	x := tensor.Randn(rng, 5, 4, 1)
	y := l.Forward(x)
	if y.Rows() != 5 || y.Cols() != 3 {
		t.Fatalf("output %dx%d, want 5x3", y.Rows(), y.Cols())
	}
	if CountParams(l.Params()) != 4*3+3 {
		t.Errorf("params = %d, want 15", CountParams(l.Params()))
	}
}

func TestLinearGradientFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, 3, 2)
	x := tensor.Randn(rng, 4, 3, 1)
	tensor.Sum(l.Forward(x)).Backward()
	if l.W.Grad == nil || l.B.Grad == nil {
		t.Fatal("gradients not populated")
	}
	// Bias gradient of Sum is the row count.
	for _, g := range l.B.Grad {
		if g != 4 {
			t.Errorf("bias grad = %v, want 4", g)
		}
	}
}

func TestEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewEmbedding(rng, 10, 4)
	out := e.Forward([]int32{1, 1, 7})
	if out.Rows() != 3 || out.Cols() != 4 {
		t.Fatalf("output %dx%d", out.Rows(), out.Cols())
	}
	for j := 0; j < 4; j++ {
		if out.At(0, j) != out.At(1, j) {
			t.Error("same id should give same row")
		}
	}
	tensor.Sum(out).Backward()
	// Row 1 was used twice: grad 2; row 7 once: grad 1; row 0 unused: 0.
	if e.Table.Grad[1*4] != 2 || e.Table.Grad[7*4] != 1 || e.Table.Grad[0] != 0 {
		t.Errorf("embedding grads wrong: %v", e.Table.Grad[:8])
	}
}

func TestNormKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.Randn(rng, 6, 8, 3)
	for _, tt := range []struct {
		name string
		kind NormKind
	}{
		{name: "layer", kind: LayerNorm},
		{name: "batch", kind: BatchNorm},
	} {
		t.Run(tt.name, func(t *testing.T) {
			n := NewNorm(tt.kind, 8)
			y := n.Forward(x)
			if y.Rows() != 6 || y.Cols() != 8 {
				t.Fatalf("output %dx%d", y.Rows(), y.Cols())
			}
			if !y.IsFinite() {
				t.Error("non-finite norm output")
			}
			if len(n.Params()) != 2 {
				t.Error("norm should expose gamma and beta")
			}
		})
	}
}

func TestMLPReadout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, 8, 16, 1)
	x := tensor.Randn(rng, 3, 8, 1)
	y := m.Forward(x)
	if y.Rows() != 3 || y.Cols() != 1 {
		t.Fatalf("output %dx%d", y.Rows(), y.Cols())
	}
	if CountParams(m.Params()) != 8*16+16+16*1+1 {
		t.Errorf("params = %d", CountParams(m.Params()))
	}
}

func TestCollectParams(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l1 := NewLinear(rng, 2, 2)
	l2 := NewLinear(rng, 2, 2)
	ps := CollectParams(l1, l2)
	if len(ps) != 4 {
		t.Errorf("collected %d params, want 4", len(ps))
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	// Minimise ||x - c||² — Adam should converge close to c.
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 1, 4, 1).RequireGrad()
	c := tensor.New(1, 4, []float64{1, -2, 3, 0.5})
	opt := NewAdam([]*tensor.Tensor{x}, 0.05)
	var loss float64
	for i := 0; i < 500; i++ {
		opt.ZeroGrad()
		l := tensor.MSELoss(x, c)
		l.Backward()
		opt.Step()
		loss = l.Item()
	}
	if loss > 1e-4 {
		t.Errorf("final loss = %v, want < 1e-4", loss)
	}
	for j := 0; j < 4; j++ {
		if math.Abs(x.At(0, j)-c.At(0, j)) > 0.05 {
			t.Errorf("x[%d] = %v, want %v", j, x.At(0, j), c.At(0, j))
		}
	}
}

func TestAdamGradientClipping(t *testing.T) {
	x := tensor.New(1, 1, []float64{0}).RequireGrad()
	opt := NewAdam([]*tensor.Tensor{x}, 0.1)
	x.Grad = []float64{1e9} // absurd gradient
	opt.Step()
	if math.Abs(x.Data[0]) > 1 {
		t.Errorf("clipped step moved x to %v; clipping failed", x.Data[0])
	}
}

func TestAdamSkipsNilGrads(t *testing.T) {
	x := tensor.Zeros(1, 2).RequireGrad()
	opt := NewAdam([]*tensor.Tensor{x}, 0.1)
	opt.Step() // no grads accumulated; must not panic
	if x.Data[0] != 0 {
		t.Error("step without grads should not move params")
	}
}

func TestAdamZeroGrad(t *testing.T) {
	x := tensor.Zeros(1, 2).RequireGrad()
	tensor.Sum(x).Backward()
	opt := NewAdam([]*tensor.Tensor{x}, 0.1)
	opt.ZeroGrad()
	for _, g := range x.Grad {
		if g != 0 {
			t.Error("ZeroGrad left residue")
		}
	}
}

func TestTrainSmallRegression(t *testing.T) {
	// End-to-end: a 2-layer MLP fits y = sum(x) on random data.
	rng := rand.New(rand.NewSource(8))
	mlp := NewMLP(rng, 3, 16, 1)
	opt := NewAdam(mlp.Params(), 0.01)
	var final float64
	for epoch := 0; epoch < 300; epoch++ {
		x := tensor.Randn(rng, 16, 3, 1)
		target := tensor.Zeros(16, 1)
		for i := 0; i < 16; i++ {
			s := 0.0
			for j := 0; j < 3; j++ {
				s += x.At(i, j)
			}
			target.Set(i, 0, s)
		}
		opt.ZeroGrad()
		loss := tensor.MSELoss(mlp.Forward(x), target)
		loss.Backward()
		opt.Step()
		final = loss.Item()
	}
	if final > 0.1 {
		t.Errorf("MLP failed to fit linear target: loss %v", final)
	}
}

func BenchmarkLinearForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 128, 128)
	opt := NewAdam(l.Params(), 1e-3)
	x := tensor.Randn(rng, 256, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.ZeroGrad()
		tensor.Sum(l.Forward(x)).Backward()
		opt.Step()
	}
}
