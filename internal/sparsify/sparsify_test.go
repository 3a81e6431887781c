package sparsify

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mega/internal/compute"
	"mega/internal/graph"
)

// barbell builds two k-cliques joined by a single bridge edge; the bridge
// is the highest-effective-resistance edge by a wide margin (R ≈ 1 vs
// ≈ 2/k inside the cliques).
func barbell(k int) (*graph.Graph, int) {
	var edges []graph.Edge
	for c := 0; c < 2; c++ {
		off := int32(c * k)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, graph.Edge{Src: off + int32(i), Dst: off + int32(j)})
			}
		}
	}
	bridge := len(edges)
	edges = append(edges, graph.Edge{Src: 0, Dst: int32(k)})
	return graph.MustNew(2*k, edges, false), bridge
}

func TestScoresBridgeDominates(t *testing.T) {
	g, bridge := barbell(6)
	scores := Scores(g, 32, 0, 3)
	for i, s := range scores {
		if i == bridge {
			continue
		}
		if s >= scores[bridge] {
			t.Fatalf("clique edge %d scored %v >= bridge %v", i, s, scores[bridge])
		}
	}
	// The bridge carries the whole inter-clique current: R ≈ 1, while
	// clique edges sit near 2/k. The sketch is noisy, but a 2× separation
	// must survive it.
	maxClique := 0.0
	for i, s := range scores {
		if i != bridge && s > maxClique {
			maxClique = s
		}
	}
	if scores[bridge] < 2*maxClique {
		t.Fatalf("bridge score %v not well above clique max %v", scores[bridge], maxClique)
	}
}

func TestScoresDeterministicAcrossThreads(t *testing.T) {
	g := graph.ErdosRenyiM(rand.New(rand.NewSource(11)), 40, 120)
	a := Scores(g, 0, 0, 7)
	prev := compute.SetMaxThreads(1)
	b := Scores(g, 0, 0, 7)
	compute.SetMaxThreads(prev)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("score %d differs across thread counts: %v vs %v", i, a[i], b[i])
		}
	}
	c := Scores(g, 0, 0, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical score vectors")
	}
}

func countKept(keep []bool) int {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	return n
}

func TestPlanKeepFraction(t *testing.T) {
	g := graph.ErdosRenyiM(rand.New(rand.NewSource(5)), 60, 300)
	keep, err := New(g, Options{Fraction: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m := g.NumEdges()
	if len(keep) != m {
		t.Fatalf("keep mask covers %d of %d edges", len(keep), m)
	}
	// Expected 150 kept; Bernoulli sd is < 9, so ±45 is a 5σ envelope.
	if kept := countKept(keep); kept < m/2-45 || kept > m/2+45 {
		t.Fatalf("kept %d of %d, want about %d", kept, m, m/2)
	}
}

func TestPlanDeterministic(t *testing.T) {
	g := graph.ErdosRenyiM(rand.New(rand.NewSource(2)), 30, 90)
	a, err := New(g, Options{Fraction: 0.4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, Options{Fraction: 0.4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatal("keep masks differ across identical runs")
	}
}

func TestPlanFractionOneIsIdentity(t *testing.T) {
	g := graph.ErdosRenyiM(rand.New(rand.NewSource(4)), 20, 50)
	keep, err := New(g, Options{Fraction: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if kept := countKept(keep); kept != g.NumEdges() {
		t.Fatalf("fraction 1 kept %d of %d", kept, g.NumEdges())
	}
}

func TestBadFraction(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}}, false)
	for _, f := range []float64{0, -0.2, 1.5} {
		if _, err := New(g, Options{Fraction: f}); !errors.Is(err, ErrBadFraction) {
			t.Errorf("fraction %v: got %v, want ErrBadFraction", f, err)
		}
	}
}

// TestSamplerSaltIndependence pins the stream-independence contract: the
// per-edge coins under distinct salts are uncorrelated even for the same
// seed, so no two samplers sharing a seed value can couple.
func TestSamplerSaltIndependence(t *testing.T) {
	const n = 4096
	match := 0
	for i := 0; i < n; i++ {
		a := edgeCoin(7, saltSample, i, int32(i), int32(i+1)) < 0.5
		b := edgeCoin(7, saltProbe, i, int32(i), int32(i+1)) < 0.5
		if a == b {
			match++
		}
	}
	// Independent fair coins agree ~n/2 ± a few sd (sd = 32); 6σ bounds.
	if match < n/2-200 || match > n/2+200 {
		t.Fatalf("salted streams agree on %d/%d decisions — correlated", match, n)
	}
}
