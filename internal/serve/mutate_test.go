package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"mega/internal/datasets"
	"mega/internal/graph"
	"mega/internal/models"
)

// mutatedEdges mirrors the maintainer's canonical successor edge order on
// the client side: removes compact the COO list preserving order, adds
// append as (min,max). A client that reconstructs the mutated graph this
// way computes the same fingerprint the /update response reports, so its
// next /predict is a cache hit. This mirroring is the wire contract
// documented on UpdateResponse.Fingerprint.
func mutatedEdges(t *testing.T, base [][2]int32, removes, adds [][2]int32) [][2]int32 {
	t.Helper()
	out := append([][2]int32(nil), base...)
	for _, rm := range removes {
		found := -1
		for i, e := range out {
			if (e[0] == rm[0] && e[1] == rm[1]) || (e[0] == rm[1] && e[1] == rm[0]) {
				found = i
				break
			}
		}
		if found < 0 {
			t.Fatalf("remove (%d,%d) not in edge list", rm[0], rm[1])
		}
		out = append(out[:found], out[found+1:]...)
	}
	for _, ad := range adds {
		u, v := ad[0], ad[1]
		if u > v {
			u, v = v, u
		}
		out = append(out, [2]int32{u, v})
	}
	return out
}

// pickMutations scans a graph for nRemove existing edges and nAdd absent
// non-loop pairs.
func pickMutations(t *testing.T, g *graph.Graph, nRemove, nAdd int) (removes, adds [][2]int32) {
	t.Helper()
	for i := 0; i < nRemove && i < g.NumEdges(); i++ {
		e := g.EdgeAt(i * 2 % g.NumEdges())
		pair := [2]int32{e.Src, e.Dst}
		dup := false
		for _, r := range removes {
			if r == pair {
				dup = true
			}
		}
		if !dup {
			removes = append(removes, pair)
		}
	}
	n := int32(g.NumNodes())
	for u := int32(0); int32(len(adds)) < int32(nAdd) && u < n; u++ {
		for v := u + 1; len(adds) < nAdd && v < n; v++ {
			if !g.HasEdge(u, v) {
				adds = append(adds, [2]int32{u, v})
			}
		}
	}
	if len(adds) < nAdd {
		t.Fatalf("graph too dense to find %d absent edges", nAdd)
	}
	return removes, adds
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, string(raw)
}

// TestUpdateEndToEnd is the serving acceptance path: train → serve → POST
// /update a mutation batch → /predict the mutated graph. The prediction
// must be a cache hit on the repaired representation and bit-identical to a
// second server that preprocesses the mutated graph from scratch.
func TestUpdateEndToEnd(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inst := ds.Val[0]
	g := inst.G
	base := make([][2]int32, g.NumEdges())
	for i := range base {
		e := g.EdgeAt(i)
		base[i] = [2]int32{e.Src, e.Dst}
	}
	removes, adds := pickMutations(t, g, 1, 2)

	var up UpdateResponse
	code, raw := postJSON(t, ts.URL+"/update", UpdateRequest{
		Base:   &GraphRequest{NumNodes: g.NumNodes(), Edges: base},
		Remove: removes,
		Add:    adds,
	}, &up)
	if code != http.StatusOK {
		t.Fatalf("/update = %d: %s", code, raw)
	}
	if !up.Adopted {
		t.Error("first update should report a fresh adoption")
	}

	// Client-side reconstruction of the canonical successor graph.
	mutated := mutatedEdges(t, base, removes, adds)
	mg, err := graphFromPairs(g.NumNodes(), mutated)
	if err != nil {
		t.Fatal(err)
	}
	if got := mg.Fingerprint().String(); got != up.Fingerprint {
		t.Fatalf("client canonical fingerprint %s, server %s", got, up.Fingerprint)
	}
	if up.NumEdges != mg.NumEdges() || up.NumNodes != mg.NumNodes() {
		t.Errorf("response sizes %d/%d, want %d/%d", up.NumNodes, up.NumEdges, mg.NumNodes(), mg.NumEdges())
	}

	// Predict through the repaired, published representation.
	var pred Prediction
	code, raw = postJSON(t, ts.URL+"/predict", GraphRequest{
		NumNodes: g.NumNodes(), Edges: mutated, NodeFeats: inst.NodeFeat,
	}, &pred)
	if code != http.StatusOK {
		t.Fatalf("/predict = %d: %s", code, raw)
	}
	if !pred.CacheHit {
		t.Error("prediction after /update should hit the published representation")
	}

	// A second server over the same loaded model preprocesses the mutated
	// graph from scratch; bit-identity is the acceptance criterion.
	fresh, err := New(s.model, s.meta, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	mi := inst
	mi.G = mg
	mi.EdgeFeat = make([]int32, mg.NumEdges())
	want, err := fresh.Predict(mi)
	if err != nil {
		t.Fatal(err)
	}
	if want.CacheHit {
		t.Error("fresh server cannot cache-hit")
	}
	if len(pred.Output) != len(want.Output) {
		t.Fatalf("output width %d vs %d", len(pred.Output), len(want.Output))
	}
	for i := range want.Output {
		if math.Float64bits(pred.Output[i]) != math.Float64bits(want.Output[i]) {
			t.Fatalf("repaired-rep output[%d] = %x, fresh-preprocess = %x",
				i, math.Float64bits(pred.Output[i]), math.Float64bits(want.Output[i]))
		}
	}

	snap := s.MetricsSnapshot(false)
	if snap.Updates != 1 || snap.UpdateErrors != 0 {
		t.Errorf("updates=%d errors=%d, want 1/0", snap.Updates, snap.UpdateErrors)
	}
	if snap.MutationsApplied != uint64(len(removes)+len(adds)) {
		t.Errorf("mutations_applied=%d, want %d", snap.MutationsApplied, len(removes)+len(adds))
	}
	if snap.MutationSessions != 1 || snap.SessionAdoptions != 1 {
		t.Errorf("sessions=%d adoptions=%d, want 1/1", snap.MutationSessions, snap.SessionAdoptions)
	}
	if snap.UpdateLatency.Count != 1 || snap.RepairLatency.Count != 1 {
		t.Errorf("update/repair latency counts %d/%d, want 1/1",
			snap.UpdateLatency.Count, snap.RepairLatency.Count)
	}
}

func graphFromPairs(n int, pairs [][2]int32) (*graph.Graph, error) {
	edges := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = graph.Edge{Src: p[0], Dst: p[1]}
	}
	return graph.New(n, edges, false)
}

// TestUpdateSessionContinuation chains updates by fingerprint: the second
// batch must find the resident session (Adopted=false) and the lineage's
// final state must equal applying both batches to the base.
func TestUpdateSessionContinuation(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1})
	inst := ds.Val[2]
	g := inst.G
	base := make([][2]int32, g.NumEdges())
	for i := range base {
		e := g.EdgeAt(i)
		base[i] = [2]int32{e.Src, e.Dst}
	}
	_, adds := pickMutations(t, g, 0, 3)

	up1, err := s.Update(UpdateRequest{
		Base: &GraphRequest{NumNodes: g.NumNodes(), Edges: base},
		Add:  adds[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	up2, err := s.Update(UpdateRequest{Fingerprint: up1.Fingerprint, Add: adds[1:]})
	if err != nil {
		t.Fatal(err)
	}
	if up2.Adopted {
		t.Error("second update should continue the resident session")
	}
	mutated := mutatedEdges(t, base, nil, adds)
	mg, err := graphFromPairs(g.NumNodes(), mutated)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Fingerprint().String() != up2.Fingerprint {
		t.Error("chained updates diverged from applying both batches at once")
	}
	if s.MetricsSnapshot(false).SessionAdoptions != 1 {
		t.Error("continuation should not re-adopt")
	}

	// Re-addressing an older fingerprint forks from its cached snapshot.
	up3, err := s.Update(UpdateRequest{Fingerprint: up1.Fingerprint, Add: adds[1:]})
	if err != nil {
		t.Fatal(err)
	}
	if !up3.Adopted {
		t.Error("update against a superseded fingerprint should fork via adoption")
	}
	if up3.Fingerprint != up2.Fingerprint {
		t.Error("fork applying the same batch must converge to the same successor")
	}
}

// TestUpdateErrorMapping pins the HTTP taxonomy for every rejection class.
func TestUpdateErrorMapping(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inst := ds.Val[3]
	g := inst.G
	base := make([][2]int32, g.NumEdges())
	for i := range base {
		e := g.EdgeAt(i)
		base[i] = [2]int32{e.Src, e.Dst}
	}
	e0 := g.EdgeAt(0)
	baseReq := &GraphRequest{NumNodes: g.NumNodes(), Edges: base}

	cases := []struct {
		name string
		req  UpdateRequest
		want int
	}{
		{"unknown fingerprint", UpdateRequest{
			Fingerprint: graph.Fingerprint{}.String(), Add: [][2]int32{{0, 1}},
		}, http.StatusNotFound},
		{"malformed fingerprint", UpdateRequest{
			Fingerprint: "zz", Add: [][2]int32{{0, 1}},
		}, http.StatusBadRequest},
		{"neither base nor fingerprint", UpdateRequest{
			Add: [][2]int32{{0, 1}},
		}, http.StatusBadRequest},
		{"duplicate add", UpdateRequest{
			Base: baseReq, Add: [][2]int32{{e0.Src, e0.Dst}},
		}, http.StatusConflict},
		{"missing remove", UpdateRequest{
			Base: baseReq, Remove: [][2]int32{{int32(g.NumNodes()) - 1, int32(g.NumNodes()) - 2}},
		}, http.StatusConflict},
		{"self loop", UpdateRequest{
			Base: baseReq, Add: [][2]int32{{1, 1}},
		}, http.StatusBadRequest},
		{"vertex out of range", UpdateRequest{
			Base: baseReq, Add: [][2]int32{{0, int32(g.NumNodes())}},
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if tc.name == "missing remove" && g.HasEdge(int32(g.NumNodes())-1, int32(g.NumNodes())-2) {
			continue
		}
		code, raw := postJSON(t, ts.URL+"/update", tc.req, nil)
		if code != tc.want {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, code, tc.want, raw)
		}
	}

	// A rejected batch must leave the lineage usable: the base fingerprint
	// stays addressable and a valid batch still lands.
	_, adds := pickMutations(t, g, 0, 1)
	if _, err := s.Update(UpdateRequest{
		Fingerprint: g.Fingerprint().String(), Add: adds,
	}); err != nil {
		t.Fatalf("valid update after rejected batches: %v", err)
	}

	snap := s.MetricsSnapshot(false)
	if snap.UpdateErrors == 0 {
		t.Error("rejections should count as update errors")
	}

	// Non-MEGA servers cannot maintain representations: 501.
	dgl, err := New(s.model, s.meta, Options{Engine: models.EngineDGL, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dgl.Close()
	dts := httptest.NewServer(dgl.Handler())
	defer dts.Close()
	code, raw := postJSON(t, dts.URL+"/update", UpdateRequest{Base: baseReq, Add: adds}, nil)
	if code != http.StatusNotImplemented {
		t.Errorf("dgl /update = %d, want 501 (%s)", code, raw)
	}
}

// TestMutatorPoolEviction bounds resident lineages and confirms evicted
// ones remain addressable through their cached snapshots.
func TestMutatorPoolEviction(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1, MutationSessions: 2})
	fps := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		inst := ds.Val[i]
		g := inst.G
		base := make([][2]int32, g.NumEdges())
		for j := range base {
			e := g.EdgeAt(j)
			base[j] = [2]int32{e.Src, e.Dst}
		}
		_, adds := pickMutations(t, g, 0, 1)
		up, err := s.Update(UpdateRequest{
			Base: &GraphRequest{NumNodes: g.NumNodes(), Edges: base},
			Add:  adds,
		})
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, up.Fingerprint)
	}
	if n := s.mutators.Len(); n != 2 {
		t.Errorf("pool holds %d sessions, want capacity 2", n)
	}
	// The first lineage was evicted; updating it must re-adopt from its
	// published snapshot, not 404.
	g0 := ds.Val[0].G
	var rm [][2]int32
	e := g0.EdgeAt(0)
	rm = append(rm, [2]int32{e.Src, e.Dst})
	up, err := s.Update(UpdateRequest{Fingerprint: fps[0], Remove: rm})
	if err != nil {
		t.Fatalf("update of evicted lineage: %v", err)
	}
	if !up.Adopted {
		t.Error("evicted lineage should re-adopt")
	}
}

// TestMixedPredictUpdateBitIdentity runs a mutation session with
// predictions issued concurrently against the evolving graph's states and
// pins the serving invariant end to end: an answer served mid-churn from
// representations /update rebuilt is bit-identical to the quiesced
// re-run, and to a fresh server that never saw a mutation and preprocesses
// the final graph from scratch.
func TestMixedPredictUpdateBitIdentity(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 4, Workers: 2, QueueDepth: 64})
	inst := ds.Val[3]
	n := inst.G.NumNodes()
	edges := make([][2]int32, inst.G.NumEdges())
	for i := range edges {
		e := inst.G.EdgeAt(i)
		edges[i] = [2]int32{e.Src, e.Dst}
	}
	rng := rand.New(rand.NewSource(17))
	absent := func(g *graph.Graph, taken [][2]int32) [2]int32 {
		for {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u > v {
				u, v = v, u
			}
			if pair := [2]int32{u, v}; u != v && !g.HasEdge(u, v) && !slices.Contains(taken, pair) {
				return pair
			}
		}
	}

	const rounds = 16
	states := make([]datasets.Instance, rounds)
	preds := make([]Prediction, rounds)
	errs := make([]error, rounds)
	var wg sync.WaitGroup
	fp := ""
	for k := 0; k < rounds; k++ {
		g, err := graphFromPairs(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		req := UpdateRequest{Fingerprint: fp}
		if k == 0 {
			req = UpdateRequest{Base: &GraphRequest{NumNodes: n, Edges: edges}}
		}
		// Alternate inserts and deletes so the lineage sees both
		// directions; every third round batches a second insert.
		if k%2 == 0 {
			req.Add = [][2]int32{absent(g, nil)}
		} else {
			req.Remove = [][2]int32{edges[rng.Intn(len(edges))]}
		}
		if k%3 == 2 {
			req.Add = append(req.Add, absent(g, req.Add))
		}
		up, err := s.Update(req)
		if err != nil {
			t.Fatalf("round %d: update: %v", k, err)
		}
		edges = mutatedEdges(t, edges, req.Remove, req.Add)
		mg, err := graphFromPairs(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if got := mg.Fingerprint().String(); got != up.Fingerprint {
			t.Fatalf("round %d: successor fingerprint %s, client mirror %s", k, up.Fingerprint, got)
		}
		fp = up.Fingerprint
		// Edge features must track the mutating edge count; zeros are in
		// every vocabulary.
		states[k] = datasets.Instance{G: mg, NodeFeat: inst.NodeFeat, EdgeFeat: make([]int32, mg.NumEdges())}
		// Predict this state concurrently with the remaining churn.
		wg.Add(1)
		go func() {
			defer wg.Done()
			preds[k], errs[k] = s.Predict(states[k])
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("round %d: mid-churn predict: %v", k, err)
		}
		// Each state was published by its update before its predict was
		// issued, so preprocessing must come from that snapshot.
		if !preds[k].CacheHit {
			t.Errorf("round %d: mid-churn predict missed the published successor snapshot", k)
		}
	}

	for k, st := range states {
		again, err := s.Predict(st)
		if err != nil {
			t.Fatalf("round %d: quiesced re-predict: %v", k, err)
		}
		assertSameBits(t, fmt.Sprintf("round %d, quiesced re-predict", k), preds[k].Output, again.Output)
	}

	// Same weights, different provenance: a server that never mutated
	// preprocesses the final graph from scratch.
	fresh, err := New(s.model, s.meta, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	ref, err := fresh.Predict(states[rounds-1])
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "final state, fresh server", preds[rounds-1].Output, ref.Output)

	if snap := s.MetricsSnapshot(false); snap.Updates != rounds || snap.UpdateErrors != 0 {
		t.Errorf("updates = %d (errors %d), want %d clean", snap.Updates, snap.UpdateErrors, rounds)
	}
}

func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: output width %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: output[%d] = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
