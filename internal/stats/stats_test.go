package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	tests := []struct {
		name           string
		xs             []float64
		mean, vari, sd float64
	}{
		{name: "empty", xs: nil, mean: 0, vari: 0, sd: 0},
		{name: "single", xs: []float64{5}, mean: 5, vari: 0, sd: 0},
		{name: "pair", xs: []float64{2, 4}, mean: 3, vari: 1, sd: 1},
		{name: "uniform", xs: []float64{1, 1, 1, 1}, mean: 1, vari: 0, sd: 0},
		{name: "mixed", xs: []float64{1, 2, 3, 4, 5}, mean: 3, vari: 2, sd: math.Sqrt(2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.mean, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, tt.mean)
			}
			if got := Variance(tt.xs); !almostEqual(got, tt.vari, 1e-12) {
				t.Errorf("Variance = %v, want %v", got, tt.vari)
			}
			if got := StdDev(tt.xs); !almostEqual(got, tt.sd, 1e-12) {
				t.Errorf("StdDev = %v, want %v", got, tt.sd)
			}
		})
	}
}

func TestMinMaxErrors(t *testing.T) {
	if _, err := Min(nil); err == nil {
		t.Error("Min(nil) should error")
	}
	if _, err := Max(nil); err == nil {
		t.Error("Max(nil) should error")
	}
	xs := []float64{3, -1, 7, 0}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min = %v, %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max = %v, %v", mx, err)
	}
}

func TestKSStatisticIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	d, err := KSStatistic(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("KS of identical samples = %v, want 0", d)
	}
}

func TestKSStatisticDisjointSamples(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	d, err := KSStatistic(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestKSStatisticKnownValue(t *testing.T) {
	// a = {1,2}, b = {1.5, 2.5}: CDFs differ by at most 0.5.
	d, err := KSStatistic([]float64{1, 2}, []float64{1.5, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 0.5, 1e-12) {
		t.Errorf("KS = %v, want 0.5", d)
	}
}

func TestKSStatisticEmpty(t *testing.T) {
	if _, err := KSStatistic(nil, []float64{1}); err == nil {
		t.Error("want error on empty sample")
	}
}

func TestKSPValueBounds(t *testing.T) {
	if p := KSPValue(0, 100, 100); !almostEqual(p, 1, 1e-6) {
		t.Errorf("p(d=0) = %v, want ~1", p)
	}
	if p := KSPValue(1, 100, 100); p > 1e-6 {
		t.Errorf("p(d=1) = %v, want ~0", p)
	}
	if p := KSPValue(0.5, 0, 10); p != 0 {
		t.Errorf("p with n=0 = %v, want 0", p)
	}
}

func TestKSPValueSameDistributionHigh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	d, err := KSStatistic(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p := KSPValue(d, len(a), len(b)); p < 0.05 {
		t.Errorf("same-distribution p = %v, want > 0.05 (d=%v)", p, d)
	}
}

func TestKSPValueDifferentDistributionLow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 3
	}
	d, err := KSStatistic(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p := KSPValue(d, len(a), len(b)); p > 0.01 {
		t.Errorf("shifted-distribution p = %v, want < 0.01", p)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.5, 0.9, 1.0, -5, 5}
	h := Histogram(xs, 0, 1, 2)
	// Bins: [0,0.5) gets {0, 0.1, -5 clamped}; [0.5,1] gets {0.5, 0.9, 1.0 clamped, 5 clamped}.
	if h[0] != 3 || h[1] != 4 {
		t.Errorf("Histogram = %v, want [3 4]", h)
	}
	if h := Histogram(xs, 1, 0, 2); h[0] != 0 || h[1] != 0 {
		t.Errorf("inverted range should give zeros, got %v", h)
	}
	if h := Histogram(xs, 0, 1, 0); len(h) != 0 {
		t.Errorf("zero bins should give empty, got %v", h)
	}
}

func TestIntsToFloats(t *testing.T) {
	got := IntsToFloats([]int{1, -2, 3})
	want := []float64{1, -2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IntsToFloats = %v, want %v", got, want)
			break
		}
	}
}

// Property: KS statistic is symmetric and in [0, 1].
func TestKSSymmetryProperty(t *testing.T) {
	f := func(seed int64, la, lb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		na, nb := int(la%50)+1, int(lb%50)+1
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = rng.Float64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		d1, err1 := KSStatistic(a, b)
		d2, err2 := KSStatistic(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(d1, d2, 1e-12) && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKSStatistic(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KSStatistic(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
