package datasets

import (
	"math/rand"

	"mega/internal/stats"
)

// TableII holds the per-dataset overview statistics of the paper's
// Table II.
type TableII struct {
	Name      string
	Train     int
	Val       int
	Test      int
	MeanNodes float64
	// MeanEdges is the mean *directed* edge count (each undirected edge
	// counts twice), matching the paper's edge convention (see DESIGN.md).
	MeanEdges float64
	Sparsity  float64
}

// ComputeTableII summarises a dataset into the Table II row format.
func ComputeTableII(d *Dataset) TableII {
	all := d.All()
	nodes := make([]float64, len(all))
	edges := make([]float64, len(all))
	sparsities := make([]float64, len(all))
	for i, inst := range all {
		nodes[i] = float64(inst.G.NumNodes())
		edges[i] = float64(2 * inst.G.NumEdges())
		sparsities[i] = inst.G.Sparsity()
	}
	return TableII{
		Name:      d.Name,
		Train:     len(d.Train),
		Val:       len(d.Val),
		Test:      len(d.Test),
		MeanNodes: stats.Mean(nodes),
		MeanEdges: stats.Mean(edges),
		Sparsity:  stats.Mean(sparsities),
	}
}

// TableIII holds the degree-distribution consistency statistics of the
// paper's Table III: how uniform the degree-distribution shape is across
// the instances of one dataset.
type TableIII struct {
	Name string
	// MeanDegStd is μ(σ(d)): the mean across graphs of the per-graph
	// degree standard deviation.
	MeanDegStd float64
	// StdDegMin is σ(d_min): the std across graphs of the per-graph
	// minimum degree.
	StdDegMin float64
	// StdDegMax is σ(d_max): the std across graphs of the per-graph
	// maximum degree.
	StdDegMax float64
	// StdDegMean is σ(d_mean): the std across graphs of the per-graph
	// mean degree.
	StdDegMean float64
	// MeanKS is μ(ε): the mean Kolmogorov–Smirnov p-value over sampled
	// pairs of per-graph degree distributions; values near 1 mean the
	// distributions are mutually consistent.
	MeanKS float64
}

// ComputeTableIII computes degree-distribution statistics over at most
// maxGraphs instances (0 = all) using ksPairs sampled graph pairs for the
// KS column.
func ComputeTableIII(d *Dataset, maxGraphs, ksPairs int, seed int64) TableIII {
	all := d.All()
	if maxGraphs > 0 && len(all) > maxGraphs {
		all = all[:maxGraphs]
	}
	degStd := make([]float64, len(all))
	degMin := make([]float64, len(all))
	degMax := make([]float64, len(all))
	degMean := make([]float64, len(all))
	degSeqs := make([][]float64, len(all))
	for i, inst := range all {
		ds := stats.IntsToFloats(inst.G.Degrees())
		degSeqs[i] = ds
		degStd[i] = stats.StdDev(ds)
		mn, _ := stats.Min(ds)
		mx, _ := stats.Max(ds)
		degMin[i] = mn
		degMax[i] = mx
		degMean[i] = stats.Mean(ds)
	}
	rng := rand.New(rand.NewSource(seed))
	if ksPairs <= 0 {
		ksPairs = 50
	}
	ksVals := make([]float64, 0, ksPairs)
	for k := 0; k < ksPairs && len(all) >= 2; k++ {
		i := rng.Intn(len(all))
		j := rng.Intn(len(all))
		if i == j {
			j = (j + 1) % len(all)
		}
		ksStat, err := stats.KSStatistic(degSeqs[i], degSeqs[j])
		if err != nil {
			continue
		}
		ksVals = append(ksVals, stats.KSPValue(ksStat, len(degSeqs[i]), len(degSeqs[j])))
	}
	return TableIII{
		Name:       d.Name,
		MeanDegStd: stats.Mean(degStd),
		StdDegMin:  stats.StdDev(degMin),
		StdDegMax:  stats.StdDev(degMax),
		StdDegMean: stats.StdDev(degMean),
		MeanKS:     stats.Mean(ksVals),
	}
}

// DegreeHistogram pools the degree sequences of every instance in the
// dataset into one histogram with the given number of bins; used by the
// workload-characterisation tooling.
func DegreeHistogram(d *Dataset, nBins int) []int {
	var pooled []float64
	for _, inst := range d.All() {
		pooled = append(pooled, stats.IntsToFloats(inst.G.Degrees())...)
	}
	if len(pooled) == 0 {
		return make([]int, nBins)
	}
	mx, _ := stats.Max(pooled)
	return stats.Histogram(pooled, 0, mx+1, nBins)
}
