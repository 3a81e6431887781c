package traverse

import (
	"math/rand"
	"testing"
	"time"

	"mega/internal/graph"
)

// Helpers shared by this package's tests and the pinned-digest test, which
// has to live in package traverse_test: it builds bands, and band imports
// traverse.

// RandomMultigraph draws m edges with independent uniform endpoints, so
// self loops and parallel edges both occur.
func RandomMultigraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.NodeID(rng.Intn(n)), Dst: graph.NodeID(rng.Intn(n))}
	}
	return graph.MustNew(n, edges, false)
}

// DistinctPairs counts g's distinct unordered endpoint pairs, self loops
// included: what CoveredEdges reaches at full coverage, since parallel
// edges cover together.
func DistinctPairs(g *graph.Graph) int {
	seen := make(map[graph.Edge]bool, g.NumEdges())
	for _, e := range g.Edges() {
		if e.Src > e.Dst {
			e.Src, e.Dst = e.Dst, e.Src
		}
		seen[e] = true
	}
	return len(seen)
}

// RunWithin runs the traversal on its own goroutine and fails the test if
// no result arrives in time: a walk that never terminates must fail, not
// hang the suite or the fuzzer.
func RunWithin(t testing.TB, d time.Duration, g *graph.Graph, opts Options) *Result {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := Run(g, opts)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(d):
		t.Fatalf("Run(n=%d, %v, %+v) returned nothing in %v", g.NumNodes(), g.Edges(), opts, d)
		return nil
	}
}
