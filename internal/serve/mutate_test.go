package serve

import (
	"bytes"
	"encoding/json"
	"errors"
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

// TestUpdateChainAndFork chains updates by fingerprint: the lineage's final
// state must equal applying both batches to the base, and re-applying the
// second batch to the superseded fingerprint must converge on it.
func TestUpdateChainAndFork(t *testing.T) {
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
	mutated := mutatedEdges(t, base, nil, adds)
	mg, err := graphFromPairs(g.NumNodes(), mutated)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Fingerprint().String() != up2.Fingerprint {
		t.Error("chained updates diverged from applying both batches at once")
	}

	// Re-addressing an older fingerprint forks from its cached rep.
	up3, err := s.Update(UpdateRequest{Fingerprint: up1.Fingerprint, Add: adds[1:]})
	if err != nil {
		t.Fatal(err)
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

func edgePairs(g *graph.Graph) [][2]int32 {
	out := make([][2]int32, g.NumEdges())
	for i := range out {
		e := g.EdgeAt(i)
		out[i] = [2]int32{e.Src, e.Dst}
	}
	return out
}

// TestUpdateConcurrentFork sends two different batches against one
// fingerprint at once. Both land, each forking the cached base, and each
// successor predicts bit-equal to a fresh server that preprocessed it from
// scratch.
func TestUpdateConcurrentFork(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 2, Workers: 2})
	inst := ds.Val[1]
	g := inst.G
	base := edgePairs(g)
	// An empty batch publishes the base and names its fingerprint.
	up0, err := s.Update(UpdateRequest{Base: &GraphRequest{NumNodes: g.NumNodes(), Edges: base}})
	if err != nil {
		t.Fatal(err)
	}
	if up0.Fingerprint != g.Fingerprint().String() {
		t.Fatalf("empty batch moved the lineage to %s", up0.Fingerprint)
	}
	_, adds := pickMutations(t, g, 0, 2)
	reqs := []UpdateRequest{
		{Fingerprint: up0.Fingerprint, Add: adds[:1]},
		{Fingerprint: up0.Fingerprint, Remove: base[:1], Add: adds[1:]},
	}
	ups := make([]UpdateResponse, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ups[i], errs[i] = s.Update(reqs[i])
		}()
	}
	close(start)
	wg.Wait()

	fresh, err := New(s.model, s.meta, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for i, req := range reqs {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		mg, err := graphFromPairs(g.NumNodes(), mutatedEdges(t, base, req.Remove, req.Add))
		if err != nil {
			t.Fatal(err)
		}
		if got := mg.Fingerprint().String(); got != ups[i].Fingerprint {
			t.Fatalf("fork %d: server successor %s, client mirror %s", i, ups[i].Fingerprint, got)
		}
		mi := datasets.Instance{G: mg, NodeFeat: inst.NodeFeat, EdgeFeat: make([]int32, mg.NumEdges())}
		got, err := s.Predict(mi)
		if err != nil {
			t.Fatal(err)
		}
		if !got.CacheHit {
			t.Errorf("fork %d: predict missed the published successor", i)
		}
		want, err := fresh.Predict(mi)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, fmt.Sprintf("fork %d vs fresh server", i), got.Output, want.Output)
	}
	if ups[0].Fingerprint == ups[1].Fingerprint {
		t.Error("different batches on one base converged")
	}
}

// TestUpdateEvictedFingerprint pins that a lineage lives in the rep cache:
// once its fingerprint is evicted an update gets 404, and re-sending the
// graph as "base" revives it. With caching disabled no fingerprint can be
// continued at all.
func TestUpdateEvictedFingerprint(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1}.WithCacheCapacity(2))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := ds.Val[0].G
	base := edgePairs(g)
	_, adds := pickMutations(t, g, 0, 2)
	up, err := s.Update(UpdateRequest{Base: &GraphRequest{NumNodes: g.NumNodes(), Edges: base}, Add: adds[:1]})
	if err != nil {
		t.Fatal(err)
	}
	// Two other graphs push the base and its successor out.
	for _, inst := range ds.Val[1:3] {
		if _, err := s.Predict(inst); err != nil {
			t.Fatal(err)
		}
	}
	next := UpdateRequest{Fingerprint: up.Fingerprint, Add: adds[1:]}
	if code, raw := postJSON(t, ts.URL+"/update", next, nil); code != http.StatusNotFound {
		t.Fatalf("evicted fingerprint: HTTP %d, want 404 (%s)", code, raw)
	}
	mutated := mutatedEdges(t, base, nil, adds[:1])
	revived, err := s.Update(UpdateRequest{Base: &GraphRequest{NumNodes: g.NumNodes(), Edges: mutated}, Add: adds[1:]})
	if err != nil {
		t.Fatalf("revive by base: %v", err)
	}
	mg, err := graphFromPairs(g.NumNodes(), mutatedEdges(t, mutated, nil, adds[1:]))
	if err != nil {
		t.Fatal(err)
	}
	if revived.Fingerprint != mg.Fingerprint().String() {
		t.Error("revived lineage diverged from the client mirror")
	}
	if _, err := s.Update(next); err != nil {
		t.Errorf("revived fingerprint not addressable: %v", err)
	}

	uncached, err := New(s.model, s.meta, Options{MaxBatch: 1}.WithCacheCapacity(0))
	if err != nil {
		t.Fatal(err)
	}
	defer uncached.Close()
	up, err = uncached.Update(UpdateRequest{Base: &GraphRequest{NumNodes: g.NumNodes(), Edges: base}, Add: adds[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uncached.Update(UpdateRequest{Fingerprint: up.Fingerprint, Add: adds[1:]}); !errors.Is(err, ErrUnknownFingerprint) {
		t.Errorf("continuation without a cache: %v, want ErrUnknownFingerprint", err)
	}
}

// TestUpdateRejectedBatchPublishesNothing sends batches the validator
// refuses against a published fingerprint: none may add a cache entry, and
// the unchanged fingerprint still takes a valid batch.
func TestUpdateRejectedBatchPublishesNothing(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := ds.Val[4].G
	up0, err := s.Update(UpdateRequest{Base: &GraphRequest{NumNodes: g.NumNodes(), Edges: edgePairs(g)}})
	if err != nil {
		t.Fatal(err)
	}
	before := s.CacheStats().Size
	e0 := g.EdgeAt(0)
	_, adds := pickMutations(t, g, 0, 1)
	n := int32(g.NumNodes())
	cases := []struct {
		name string
		req  UpdateRequest
		want int
	}{
		{"duplicate add", UpdateRequest{Add: [][2]int32{{e0.Src, e0.Dst}}}, http.StatusConflict},
		{"missing remove", UpdateRequest{Remove: adds}, http.StatusConflict},
		{"add twice", UpdateRequest{Add: [][2]int32{adds[0], adds[0]}}, http.StatusConflict},
		{"self loop", UpdateRequest{Add: [][2]int32{adds[0], {1, 1}}}, http.StatusBadRequest},
		{"vertex out of range", UpdateRequest{Add: [][2]int32{adds[0], {0, n}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		tc.req.Fingerprint = up0.Fingerprint
		if code, raw := postJSON(t, ts.URL+"/update", tc.req, nil); code != tc.want {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, code, tc.want, raw)
		}
		if got := s.CacheStats().Size; got != before {
			t.Errorf("%s: cache holds %d reps, want %d", tc.name, got, before)
		}
	}
	if _, err := s.Update(UpdateRequest{Fingerprint: up0.Fingerprint, Add: adds}); err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
	if got := s.CacheStats().Size; got != before+1 {
		t.Errorf("cache holds %d reps after a valid batch, want %d", got, before+1)
	}
}

// TestUpdateNonSimpleBase refuses a base with a parallel edge or a self
// loop (501) and publishes nothing for it.
func TestUpdateNonSimpleBase(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{MaxBatch: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := ds.Val[5].G
	base := edgePairs(g)
	_, adds := pickMutations(t, g, 0, 1)
	for name, edges := range map[string][][2]int32{
		"parallel edge": append(slices.Clone(base), [2]int32{base[0][1], base[0][0]}),
		"self loop":     append(slices.Clone(base), [2]int32{0, 0}),
	} {
		req := UpdateRequest{Base: &GraphRequest{NumNodes: g.NumNodes(), Edges: edges}, Add: adds}
		if code, raw := postJSON(t, ts.URL+"/update", req, nil); code != http.StatusNotImplemented {
			t.Errorf("%s: HTTP %d, want 501 (%s)", name, code, raw)
		}
	}
	if got := s.CacheStats().Size; got != 0 {
		t.Errorf("refused bases left %d cached reps, want 0", got)
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
