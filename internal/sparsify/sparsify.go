// Package sparsify builds spectral graph sparsifiers from approximate
// effective-resistance edge scores — the preprocessing mode of Srinivasa
// et al. ("Fast Graph Attention Networks Using Effective Resistance Based
// Graph Sparsification"), grafted onto MEGA's pipeline: a sparsified graph
// has a lower mean degree, so the adaptive attention band shrinks, the
// path shortens, and every downstream fast path compounds on top.
//
// Effective resistance R(u,v) treats the graph as a resistor network with
// unit conductances; edges whose endpoints have few alternative routes
// (bridges, tree edges) have R ≈ 1 and are structurally irreplaceable,
// while edges inside dense clusters share current across many parallel
// paths and score low. Sampling edge e with probability proportional to
// R(e) and reweighting survivors by 1/pₑ preserves the graph's Laplacian
// quadratic form in expectation (Spielman–Srivastava) — the property that
// makes aggressive keep fractions survivable for attention quality.
//
// Scores are approximated with the standard random-projection sketch:
// t random ±1/√t signed edge probes are pushed through the incidence
// operator and a few-iteration conjugate-gradient Laplacian solve, giving
// R(u,v) ≈ Σⱼ (zⱼ[u] − zⱼ[v])² over the t solution vectors. Everything is
// deterministic under the seed: probe signs come from a seeded generator,
// the solver runs a fixed iteration budget with order-fixed serial
// reductions, and per-edge keep decisions are pure hashes of
// (seed, salt, edge) — no sequential stream, so the sampler composes with
// other edge filters (traverse.Options.DropEdges) without coupling.
package sparsify

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mega/internal/compute"
	"mega/internal/graph"
	"mega/internal/tensor"
)

// Defaults for the scoring sketch. Eight probes resolve score ratios to
// well under the ~4× contrast between bridge and cluster edges, and 24 CG
// iterations drive the residual far below sampling noise on the evaluation
// graphs (tens to hundreds of vertices).
const (
	DefaultProbes     = 8
	DefaultIterations = 24
)

// ErrBadFraction rejects keep fractions outside (0, 1].
var ErrBadFraction = errors.New("sparsify: keep fraction outside (0, 1]")

// Options configures a sparsification plan.
type Options struct {
	// Fraction is the target keep fraction in (0, 1]: the sampler aims to
	// keep Fraction·m edges in expectation. 1 keeps every edge (weights
	// all 1) — the identity plan.
	Fraction float64
	// Seed drives the probe signs and the per-edge keep decisions. Plans
	// are bit-reproducible for a fixed (graph, Options) pair.
	Seed int64
	// Probes is the number of random ±1 probe vectors (0 selects
	// DefaultProbes). More probes sharpen the score estimates.
	Probes int
	// Iterations bounds the conjugate-gradient Laplacian solve (0 selects
	// DefaultIterations; always capped at the vertex count).
	Iterations int
}

// Plan is a computed sparsification: per-edge keep decisions over a
// graph's COO edge list, with importance-sampling reweighting for the
// survivors. Slices are indexed by the original edge order.
type Plan struct {
	// Keep[i] reports that edge i survives.
	Keep []bool
	// Weight[i] is the reweighting 1/pᵢ for kept edges (≥ 1 up to float
	// rounding) and 0 for removed ones; pᵢ is the keep probability the
	// sampler used, so the reweighted Laplacian matches the original in
	// expectation.
	Weight []float64
	// Scores holds the approximate effective resistance of every edge.
	Scores []float64
	// Kept counts true entries of Keep.
	Kept int
}

// New scores g's edges by approximate effective resistance and samples a
// keep set of expected size Fraction·m, deterministically under the seed.
func New(g *graph.Graph, opts Options) (*Plan, error) {
	if opts.Fraction <= 0 || opts.Fraction > 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadFraction, opts.Fraction)
	}
	m := g.NumEdges()
	p := &Plan{Keep: make([]bool, m), Weight: make([]float64, m)}
	if m == 0 {
		return p, nil
	}
	p.Scores = Scores(g, opts.Probes, opts.Iterations, opts.Seed)
	probs := keepProbabilities(p.Scores, opts.Fraction)
	for i, e := range g.Edges() {
		if edgeCoin(uint64(opts.Seed), saltSample, i, e.Src, e.Dst) < probs[i] {
			p.Keep[i] = true
			p.Weight[i] = 1 / probs[i]
			p.Kept++
		}
	}
	return p, nil
}

// Apply materialises the plan: a graph over the same vertex set holding
// exactly the kept edges, in their original relative order (order
// stability is what lets two independent edge filters compose
// commutatively — see traverse.Run).
func (p *Plan) Apply(g *graph.Graph) (*graph.Graph, error) {
	kept := make([]graph.Edge, 0, p.Kept)
	for i, e := range g.Edges() {
		if p.Keep[i] {
			kept = append(kept, e)
		}
	}
	return graph.New(g.NumNodes(), kept, g.Directed())
}

// KeptWeights returns the reweighting coefficients aligned with the edge
// list of Apply's output (kept edges only, original relative order).
func (p *Plan) KeptWeights() []float64 {
	out := make([]float64, 0, p.Kept)
	for i, w := range p.Weight {
		if p.Keep[i] {
			out = append(out, w)
		}
	}
	return out
}

// Scores approximates the effective resistance of every edge of g with the
// random-projection sketch: for each of t probes, a signed edge vector
// yⱼ = Σₑ ±(e_u − e_v)/√t is solved against the regularised Laplacian
// (L + λI) zⱼ = yⱼ by fixed-iteration conjugate gradient, and
// R(u,v) ≈ Σⱼ (zⱼ[u] − zⱼ[v])². Each edge's probe contributions are ± the
// same magnitude within its connected component, so every component's
// right-hand side sums to zero and the tiny λ only stabilises the solve.
//
// The solutions live in a probes×n tensor and the matvec + scoring loops
// run on the compute worker pool — each output element is written by
// exactly one worker from inputs fixed before the region, so scores are
// bit-identical at any thread count.
func Scores(g *graph.Graph, probes, iters int, seed int64) []float64 {
	n, m := g.NumNodes(), g.NumEdges()
	scores := make([]float64, m)
	if n == 0 || m == 0 {
		return scores
	}
	if probes <= 0 {
		probes = DefaultProbes
	}
	if iters <= 0 {
		iters = DefaultIterations
	}
	if iters > n {
		iters = n
	}
	edges := g.Edges()
	lambda := 1e-8 * (1 + g.MeanDegree())
	inv := 1 / math.Sqrt(float64(probes))

	z := tensor.Zeros(probes, n)
	rng := rand.New(rand.NewSource(int64(mix64(uint64(seed) ^ saltProbe))))
	b := make([]float64, n)
	for j := 0; j < probes; j++ {
		for i := range b {
			b[i] = 0
		}
		for _, e := range edges {
			if e.Src == e.Dst {
				continue // self loops carry no resistance
			}
			s := inv
			if rng.Intn(2) == 1 {
				s = -inv
			}
			b[e.Src] += s
			b[e.Dst] -= s
		}
		solveCG(g, b, lambda, iters, z.Data[j*n:(j+1)*n])
	}

	compute.ParallelGrain(m, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			s := 0.0
			for j := 0; j < probes; j++ {
				d := z.Data[j*n+int(e.Src)] - z.Data[j*n+int(e.Dst)]
				s += d * d
			}
			scores[i] = s
		}
	})
	return scores
}

// solveCG runs plain conjugate gradient on (L + λI) x = b for a fixed
// iteration budget, writing the solution into out. The dot products are
// serial (order-fixed reductions keep the solve bit-reproducible); the
// matvec parallelises by row.
func solveCG(g *graph.Graph, b []float64, lambda float64, iters int, out []float64) {
	n := len(b)
	for i := range out {
		out[i] = 0
	}
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	ap := make([]float64, n)
	rs := dot(r, r)
	for it := 0; it < iters && rs > 1e-24; it++ {
		lapMul(g, lambda, p, ap)
		den := dot(p, ap)
		if den <= 0 {
			break
		}
		alpha := rs / den
		for i := range out {
			out[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rs2 := dot(r, r)
		beta := rs2 / rs
		rs = rs2
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
}

// lapMul computes out = (L + λI)·x over the CSR adjacency. Every out[v] is
// owned by exactly one worker and accumulates serially in neighbour order,
// so the product is thread-count-invariant.
func lapMul(g *graph.Graph, lambda float64, x, out []float64) {
	compute.ParallelGrain(len(x), 128, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nbrs := g.Neighbors(graph.NodeID(v))
			acc := (float64(len(nbrs)) + lambda) * x[v]
			for _, u := range nbrs {
				acc -= x[u]
			}
			out[v] = acc
		}
	})
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// keepProbabilities converts scores into per-edge keep probabilities
// pᵢ = min(1, c·(sᵢ+ε)) with c chosen by bisection so Σpᵢ ≈ frac·m. The ε
// floor keeps zero-resistance edges (self loops, exact duplicates)
// sampleable rather than certainly dropped.
func keepProbabilities(scores []float64, frac float64) []float64 {
	m := len(scores)
	target := frac * float64(m)
	mean := 0.0
	for _, s := range scores {
		mean += s
	}
	mean /= float64(m)
	eps := 1e-12 + 1e-3*mean
	expected := func(c float64) float64 {
		t := 0.0
		for _, s := range scores {
			t += math.Min(1, c*(s+eps))
		}
		return t
	}
	lo, hi := 0.0, 1.0
	for expected(hi) < target && hi < 1e30 {
		hi *= 2
	}
	for it := 0; it < 64; it++ {
		mid := (lo + hi) / 2
		if expected(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	out := make([]float64, m)
	for i, s := range scores {
		out[i] = math.Min(1, hi*(s+eps))
	}
	return out
}

// Hash salts separating this package's random streams from each other and
// from every other per-edge sampler (traverse's drop filter derives its
// stream differently); distinct salts keep equal seed *values* from
// coupling the decisions.
const (
	saltProbe  = 0x9E3779B97F4A7C15
	saltSample = 0xC2B2AE3D27D4EB4F
)

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// edgeCoin returns the uniform [0, 1) decision variable for one edge: a
// pure hash of (seed, salt, index, endpoints) with no sequential state, so
// two samplers with distinct salts are independent even under equal seeds,
// and one sampler's decisions never shift when another filter is toggled.
func edgeCoin(seed, salt uint64, idx int, src, dst int32) float64 {
	h := mix64(seed ^ salt)
	h = mix64(h ^ uint64(uint32(src)) ^ uint64(uint32(dst))<<32)
	h = mix64(h ^ uint64(idx))
	return float64(h>>11) / (1 << 53)
}
