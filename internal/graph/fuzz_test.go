package graph

import "testing"

// fuzzGraph decodes a fuzzer-chosen byte string into an undirected graph
// on n nodes: consecutive byte pairs become edges (mod n), duplicates and
// self-loops included — the fuzzer explores multigraph corners too.
func fuzzGraph(nRaw uint8, edgeData []byte) *Graph {
	n := int(nRaw)%30 + 2
	if len(edgeData) > 128 {
		edgeData = edgeData[:128]
	}
	var edges []Edge
	for i := 0; i+1 < len(edgeData); i += 2 {
		edges = append(edges, Edge{
			Src: NodeID(int(edgeData[i]) % n),
			Dst: NodeID(int(edgeData[i+1]) % n),
		})
	}
	return MustNew(n, edges, false)
}

// FuzzFingerprint pins Fingerprint as a byte-level identity against
// arbitrary topologies: equal for an identical copy, different after any
// edge deletion.
func FuzzFingerprint(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0}, int64(1))
	f.Add(uint8(7), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6}, int64(42))
	f.Add(uint8(3), []byte{}, int64(7))
	f.Add(uint8(12), []byte{1, 1, 2, 2, 3, 4, 3, 4}, int64(-9))

	f.Fuzz(func(t *testing.T, nRaw uint8, edgeData []byte, dropSeed int64) {
		g := fuzzGraph(nRaw, edgeData)

		if g.Fingerprint() != g.Clone().Fingerprint() {
			t.Fatal("identical copy changed Fingerprint")
		}

		if m := g.NumEdges(); m > 0 {
			drop := int(dropSeed) % m
			if drop < 0 {
				drop += m
			}
			edges := g.Edges()
			edited := make([]Edge, 0, m-1)
			edited = append(edited, edges[:drop]...)
			edited = append(edited, edges[drop+1:]...)
			eg := MustNew(g.NumNodes(), edited, false)
			if g.Fingerprint() == eg.Fingerprint() {
				t.Fatalf("Fingerprint unchanged after deleting edge %d of %v", drop, edges)
			}
		}
	})
}
