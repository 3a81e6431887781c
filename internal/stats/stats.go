// Package stats provides the statistical utilities the evaluation uses:
// summary statistics over per-graph degree distributions and the two-sample
// Kolmogorov–Smirnov test used in Table III to quantify how similar degree
// distributions are across graphs within a dataset.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptySample is returned when a statistic is requested over no data.
var ErrEmptySample = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// KSStatistic returns the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F1(x) - F2(x)| between the empirical CDFs of a and b.
func KSStatistic(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmptySample
	}
	sa := make([]float64, len(a))
	copy(sa, a)
	sort.Float64s(sa)
	sb := make([]float64, len(b))
	copy(sb, b)
	sort.Float64s(sb)

	var d float64
	i, j := 0, 0
	na, nb := float64(len(sa)), float64(len(sb))
	for i < len(sa) && j < len(sb) {
		x := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] <= x {
			i++
		}
		for j < len(sb) && sb[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	return d, nil
}

// KSPValue returns the asymptotic p-value of the two-sample KS statistic d
// for sample sizes n and m, via the Kolmogorov distribution
// Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} exp(-2 k² λ²) with the standard
// finite-sample correction (Hodges 1958, the paper's reference [38]).
// The returned value is in [0, 1]; values near 1 indicate the two samples
// are consistent with the same distribution — the paper's μ(ε)≈1 reading.
func KSPValue(d float64, n, m int) float64 {
	if n == 0 || m == 0 {
		return 0
	}
	ne := float64(n) * float64(m) / float64(n+m)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*lambda*lambda*float64(k)*float64(k))
		sum += term
		sign = -sign
		if math.Abs(term) < 1e-12 {
			break
		}
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Histogram counts xs into nBins equal-width bins over [lo, hi]; values
// outside the range are clamped into the edge bins.
func Histogram(xs []float64, lo, hi float64, nBins int) []int {
	counts := make([]int, nBins)
	if nBins == 0 || hi <= lo {
		return counts
	}
	w := (hi - lo) / float64(nBins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nBins {
			b = nBins - 1
		}
		counts[b]++
	}
	return counts
}

// IntsToFloats converts an int slice to float64, a convenience for feeding
// degree sequences into the statistics above.
func IntsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
