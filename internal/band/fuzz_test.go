package band

import (
	"math/rand"
	"testing"

	"mega/internal/graph"
	"mega/internal/traverse"
)

// FuzzTraverseCoverage drives the traversal with fuzzer-chosen topology
// parameters: every accepted input must produce a valid full-coverage path.
func FuzzTraverseCoverage(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(12), uint8(2))
	f.Add(int64(7), uint8(3), uint8(0), uint8(1))
	f.Add(int64(42), uint8(20), uint8(40), uint8(5))

	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, wRaw uint8) {
		n := int(nRaw%30) + 1
		maxM := n * (n - 1) / 2
		m := 0
		if maxM > 0 {
			m = int(mRaw) % (maxM + 1)
		}
		w := int(wRaw%6) + 1
		g := graph.ErdosRenyiM(newRand(seed), n, m)
		_, res, err := FromGraph(g, traverse.Options{Window: w, EdgeCoverage: 1})
		if err != nil {
			t.Fatalf("traversal failed on valid input: %v", err)
		}
		if res.EdgeCoverageRatio() < 1 {
			t.Fatalf("coverage %v < 1 at θ=1", res.EdgeCoverageRatio())
		}
	})
}

// newRand is a tiny helper so fuzz bodies stay deterministic per input.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
