package traverse

import (
	"math/rand"
	"testing"
	"time"

	"mega/internal/graph"
)

// FuzzTraverse drives the objective traversal over fuzzer-chosen random
// multigraphs (independent uniform endpoints, so self loops and parallel
// edges occur) and windows, under a per-input deadline, and
// checks the structural invariants every full-coverage path representation
// must satisfy:
//
//   - the walk terminates;
//   - every vertex appears in the path, every entry is in range;
//   - with θ = 1 every distinct endpoint pair is covered, self loops
//     included (parallel edges cover together);
//   - Revisits and VirtualEdges agree with the path itself;
//   - the revisit count respects the two-sided coverage lower bound
//     Σ⌈d_i/(2ω)⌉ − n over distinct non-self neighbours: one appearance can
//     band-cover at most ω preceding plus ω following neighbours, so full
//     coverage forces at least that many appearances. (The paper's §III-B
//     figure Σ⌈d_i/ω⌉ − n counts one-sided coverage and is routinely
//     beaten by real paths.)
func FuzzTraverse(f *testing.F) {
	f.Add(uint8(10), uint16(15), int64(1), uint8(0))
	f.Add(uint8(5), uint16(10), int64(2), uint8(1))
	f.Add(uint8(30), uint16(200), int64(3), uint8(3))
	f.Add(uint8(1), uint16(0), int64(4), uint8(2))
	f.Add(uint8(17), uint16(40), int64(-5), uint8(5))
	f.Add(uint8(3), uint16(9), int64(6), uint8(1)) // dense in self loops, ω=1

	f.Fuzz(func(t *testing.T, nRaw uint8, mRaw uint16, seed int64, wRaw uint8) {
		n := int(nRaw)%40 + 1
		m := int(mRaw) % (3*n + 1)
		g := RandomMultigraph(rand.New(rand.NewSource(seed)), n, m)
		opts := Options{
			Window:       int(wRaw) % 6, // 0 selects the adaptive window
			EdgeCoverage: 1,
			Start:        -1,
		}
		res := RunWithin(t, 10*time.Second, g, opts)

		if len(res.Virtual) != len(res.Path) {
			t.Fatalf("virtual len %d != path len %d", len(res.Virtual), len(res.Path))
		}
		seen := make(map[graph.NodeID]bool, n)
		virt := 0
		for i, v := range res.Path {
			if int(v) < 0 || int(v) >= n {
				t.Fatalf("path[%d] = %d out of [0,%d)", i, v, n)
			}
			seen[v] = true
			if res.Virtual[i] {
				virt++
			}
		}
		if len(seen) != n {
			t.Fatalf("path covers %d of %d vertices", len(seen), n)
		}
		if len(res.Virtual) > 0 && res.Virtual[0] {
			t.Fatal("Virtual[0] must be false")
		}
		if virt != res.VirtualEdges {
			t.Fatalf("VirtualEdges = %d, path has %d", res.VirtualEdges, virt)
		}
		if got := len(res.Path) - len(seen); got != res.Revisits {
			t.Fatalf("Revisits = %d, path implies %d", res.Revisits, got)
		}

		if res.Window < 1 {
			t.Fatalf("effective window %d < 1", res.Window)
		}
		if res.TotalEdges != g.NumEdges() {
			t.Fatalf("TotalEdges = %d, graph has %d", res.TotalEdges, g.NumEdges())
		}
		if res.CoveredEdges > res.TotalEdges {
			t.Fatalf("covered %d > total %d", res.CoveredEdges, res.TotalEdges)
		}
		if want := DistinctPairs(g); res.CoveredEdges != want {
			t.Fatalf("θ=1 covered %d of %d distinct endpoint pairs", res.CoveredEdges, want)
		}

		degrees := make([]int, n)
		for v := range degrees {
			prev := graph.NodeID(-1)
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				if u != prev && int(u) != v {
					degrees[v]++
				}
				prev = u
			}
		}
		if lb := RevisitLowerBound(degrees, 2*res.Window); res.Revisits < lb {
			t.Fatalf("revisits %d below two-sided lower bound %d (ω=%d)", res.Revisits, lb, res.Window)
		}
	})
}
