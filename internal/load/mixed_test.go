package load

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mega/internal/datasets"
	"mega/internal/graph"
	"mega/internal/serve"
)

// clientMirror tracks a mutation session's graph the way the serving
// contract defines the successor: removes compact the edge list preserving
// order, adds append as (min, max). Keeping an independent copy lets the
// test (a) build /predict instances for intermediate states and (b) verify
// the server's published fingerprints against a from-scratch hash.
type clientMirror struct {
	n     int
	edges []graph.Edge
}

func (m *clientMirror) apply(req serve.UpdateRequest) {
	if len(req.Remove) > 0 {
		drop := make(map[[2]int32]int, len(req.Remove))
		for _, r := range req.Remove {
			a, b := r[0], r[1]
			if a > b {
				a, b = b, a
			}
			drop[[2]int32{a, b}]++
		}
		kept := m.edges[:0]
		for _, e := range m.edges {
			a, b := int32(e.Src), int32(e.Dst)
			if a > b {
				a, b = b, a
			}
			key := [2]int32{a, b}
			if drop[key] > 0 {
				drop[key]--
				continue
			}
			kept = append(kept, e)
		}
		m.edges = kept
	}
	for _, a := range req.Add {
		u, v := a[0], a[1]
		if u > v {
			u, v = v, u
		}
		m.edges = append(m.edges, graph.Edge{Src: graph.NodeID(u), Dst: graph.NodeID(v)})
	}
}

func (m *clientMirror) graph() *graph.Graph {
	edges := make([]graph.Edge, len(m.edges))
	copy(edges, m.edges)
	return graph.MustNew(m.n, edges, false)
}

// TestMixedPredictUpdateBitIdentity runs a mutation session with
// predictions issued concurrently against the evolving graph's states and
// pins the serving invariant end to end: an answer served mid-churn from
// incrementally repaired path representations is bit-identical to the
// quiesced re-run — and to a fresh server that never saw a mutation and
// preprocesses the final graph from scratch.
func TestMixedPredictUpdateBitIdentity(t *testing.T) {
	newServer := func() *serve.Server {
		return trainServer(t, serve.Options{MaxBatch: 4, Workers: 2, QueueDepth: 64})
	}
	s := newServer()
	meta := s.Meta()

	rng := rand.New(rand.NewSource(17))
	const n = 24
	mirror := &clientMirror{n: n, edges: randGraph(rng, n, 5).Edges()}
	nodeFeat := make([]int32, n)
	for i := range nodeFeat {
		nodeFeat[i] = int32(rng.Intn(meta.Config.NodeTypes))
	}
	instance := func(g *graph.Graph) datasets.Instance {
		// Edge features must track the mutating edge count; zeros are in
		// any vocabulary and identical across rebuilds.
		return datasets.Instance{G: g, NodeFeat: nodeFeat, EdgeFeat: make([]int32, g.NumEdges())}
	}

	// Seed the session from the base graph, then chain by fingerprint.
	type step struct {
		inst datasets.Instance
		fp   string
	}
	var (
		steps   []step
		preds   []serve.Prediction
		mu      sync.Mutex
		wg      sync.WaitGroup
		predErr error
	)
	fp := ""
	const rounds = 16
	for k := 0; k < rounds; k++ {
		req := serve.UpdateRequest{}
		if k == 0 {
			g := mirror.graph()
			req.Base = &serve.GraphRequest{NumNodes: n, Edges: edgePairs(g)}
		} else {
			req.Fingerprint = fp
		}
		// Alternate inserts and deletes so the path repair sees both splice
		// directions; every third round batches two mutations.
		if k%2 == 0 {
			req.Add = [][2]int32{absentEdge(rng, mirror.graph())}
		} else {
			e := mirror.edges[rng.Intn(len(mirror.edges))]
			a, b := int32(e.Src), int32(e.Dst)
			if a > b {
				a, b = b, a
			}
			req.Remove = [][2]int32{{a, b}}
		}
		if k%3 == 2 {
			req.Add = append(req.Add, absentEdge(rng, func() *graph.Graph {
				m2 := &clientMirror{n: n, edges: append([]graph.Edge(nil), mirror.edges...)}
				m2.apply(serve.UpdateRequest{Remove: req.Remove, Add: req.Add})
				return m2.graph()
			}()))
		}

		resp, err := s.Update(req)
		if err != nil {
			t.Fatalf("round %d: update: %v", k, err)
		}
		mirror.apply(req)
		g := mirror.graph()
		if got := g.Fingerprint().String(); got != resp.Fingerprint {
			t.Fatalf("round %d: successor fingerprint %s, client mirror %s (successor edge-order contract broken)",
				k, resp.Fingerprint, got)
		}
		fp = resp.Fingerprint

		// Predict this state concurrently with the remaining mutation churn.
		st := step{inst: instance(g), fp: fp}
		steps = append(steps, st)
		mu.Lock() // earlier rounds' predicts are still writing into preds
		preds = append(preds, serve.Prediction{})
		idx := len(preds) - 1
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := s.Predict(st.inst)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && predErr == nil {
				predErr = err
			}
			preds[idx] = p
		}()
	}
	wg.Wait()
	if predErr != nil {
		t.Fatalf("mid-churn predict: %v", predErr)
	}

	// Quiesced: re-predict every recorded state on the same server.
	for i, st := range steps {
		again, err := s.Predict(st.inst)
		if err != nil {
			t.Fatalf("quiesced re-predict of step %d: %v", i, err)
		}
		assertBitIdentical(t, "same server, step", i, preds[i].Output, again.Output)
	}

	// A fresh server (same checkpoint pipeline, never mutated) must agree
	// on the final graph: incremental repair vs from-scratch preprocessing.
	final := steps[len(steps)-1]
	fresh := newServer()
	ref, err := fresh.Predict(final.inst)
	if err != nil {
		t.Fatalf("fresh-server predict of final graph: %v", err)
	}
	// Both servers trained the same seed/epochs, so weights are identical;
	// only the path-representation provenance differs.
	assertBitIdentical(t, "fresh server, final state", len(steps)-1,
		preds[len(preds)-1].Output, ref.Output)

	// The published successor snapshot makes the final state a cache hit.
	hit, err := s.Predict(final.inst)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("final mutated graph was not served from the published snapshot")
	}
	snap := s.MetricsSnapshot(false)
	if snap.Updates != rounds || snap.UpdateErrors != 0 {
		t.Fatalf("updates = %d (errors %d), want %d clean", snap.Updates, snap.UpdateErrors, rounds)
	}
}

func assertBitIdentical(t *testing.T, what string, idx int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %d: output length %d vs %d", what, idx, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s %d: output[%d] = %x, want %x (not bit-identical)",
				what, idx, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
}
