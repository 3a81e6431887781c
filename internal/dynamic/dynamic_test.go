package dynamic

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mega/internal/band"
	"mega/internal/graph"
	"mega/internal/traverse"
)

func newMaintainer(t *testing.T, g *graph.Graph) *Maintainer {
	t.Helper()
	m, err := NewMaintainer(g, traverse.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkCanonical verifies the maintainer's core invariant: its Rep/Result
// pair is byte-identical to a from-scratch preprocess of the live graph.
func checkCanonical(t *testing.T, m *Maintainer) {
	t.Helper()
	if msg := canonicalMismatch(m); msg != "" {
		t.Fatal(msg)
	}
}

func canonicalMismatch(m *Maintainer) string {
	fresh, freshRes, err := band.FromGraph(m.Graph(), m.opts)
	if err != nil {
		return "fresh preprocess failed: " + err.Error()
	}
	return repDiff(m.Rep(), m.Result(), fresh, freshRes)
}

// checkFresh verifies that rep/res is the from-scratch preprocess of
// res.Graph under opts.
func checkFresh(t *testing.T, rep *band.Rep, res *traverse.Result, opts traverse.Options) {
	t.Helper()
	fresh, freshRes, err := band.FromGraph(res.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	if msg := repDiff(rep, res, fresh, freshRes); msg != "" {
		t.Fatal(msg)
	}
}

// repDiff compares two preprocess outputs field for field and names the
// first difference ("" when they agree).
func repDiff(rep *band.Rep, res *traverse.Result, fresh *band.Rep, freshRes *traverse.Result) string {
	if !reflect.DeepEqual(rep.Path, fresh.Path) {
		return "path differs from fresh preprocess"
	}
	if rep.Window != fresh.Window || rep.NumNodes != fresh.NumNodes ||
		rep.CoveredEdges != fresh.CoveredEdges || rep.TotalEdges != fresh.TotalEdges {
		return "rep scalars differ from fresh preprocess"
	}
	if !reflect.DeepEqual(rep.Mask, fresh.Mask) {
		return "band mask differs from fresh preprocess"
	}
	if !reflect.DeepEqual(rep.EdgeID, fresh.EdgeID) {
		return "band edge IDs differ from fresh preprocess"
	}
	if !reflect.DeepEqual(rep.Positions, fresh.Positions) {
		return "positions index differs from fresh preprocess"
	}
	if !reflect.DeepEqual(res.Graph.Edges(), freshRes.Graph.Edges()) {
		return "traversed edge list differs from fresh preprocess"
	}
	if !reflect.DeepEqual(res.Path, freshRes.Path) ||
		!reflect.DeepEqual(res.Virtual, freshRes.Virtual) ||
		!reflect.DeepEqual(res.Source, freshRes.Source) {
		return "traversal trace differs from fresh preprocess"
	}
	if res.CoveredEdges != freshRes.CoveredEdges || res.Revisits != freshRes.Revisits ||
		res.VirtualEdges != freshRes.VirtualEdges {
		return "traversal stats differ from fresh preprocess"
	}
	// EdgeRefs order is load-bearing for shard edge ownership.
	if !reflect.DeepEqual(rep.EdgeRefs(), fresh.EdgeRefs()) {
		return "EdgeRefs order differs from fresh preprocess"
	}
	return ""
}

func TestAddEdgeCanonical(t *testing.T) {
	g := graph.Path(30)
	m, err := NewMaintainer(g, traverse.Options{Window: 2, EdgeCoverage: 1, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.AddEdge(10, 14)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != RepairRebuild {
		t.Errorf("repair kind = %v", rep.Kind)
	}
	if m.NumEdges() != 30 {
		t.Errorf("edges = %d, want 30", m.NumEdges())
	}
	checkCanonical(t, m)
}

func TestAddEdgeValidation(t *testing.T) {
	g := graph.Path(4)
	m := newMaintainer(t, g)
	if _, err := m.AddEdge(0, 9); !errors.Is(err, ErrVertexRange) {
		t.Errorf("out-of-range vertex: %v", err)
	}
	if _, err := m.AddEdge(2, 2); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop: %v", err)
	}
	if _, err := m.AddEdge(0, 1); !errors.Is(err, ErrEdgeExists) {
		t.Errorf("duplicate edge: %v", err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := graph.Cycle(6)
	m := newMaintainer(t, g)
	before := m.NumEdges()
	if _, err := m.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if m.NumEdges() != before-1 {
		t.Errorf("edges = %d, want %d", m.NumEdges(), before-1)
	}
	checkCanonical(t, m)
	if _, err := m.RemoveEdge(0, 1); !errors.Is(err, ErrEdgeMissing) {
		t.Errorf("double removal: %v", err)
	}
}

func TestRemoveInBandAndSplicedEdges(t *testing.T) {
	// Remove an edge an earlier update inserted, then an edge the original
	// build captured — both must leave a canonical rep.
	g := graph.Cycle(40)
	m := newMaintainer(t, g)
	if _, err := m.AddEdge(5, 20); err != nil {
		t.Fatal(err)
	}
	checkCanonical(t, m)
	if _, err := m.RemoveEdge(5, 20); err != nil { // inserted by the update above
		t.Fatal(err)
	}
	checkCanonical(t, m)
	if _, err := m.RemoveEdge(10, 11); err != nil { // original in-band edge
		t.Fatal(err)
	}
	checkCanonical(t, m)
}

func TestReAddRemovedEdge(t *testing.T) {
	g := graph.Cycle(6)
	m := newMaintainer(t, g)
	if _, err := m.RemoveEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddEdge(2, 3); err != nil {
		t.Fatalf("re-adding removed edge: %v", err)
	}
	checkCanonical(t, m)
}

func TestBatchAtomicity(t *testing.T) {
	g := graph.Cycle(8)
	m := newMaintainer(t, g)
	repBefore := m.Rep()
	edgesBefore := m.NumEdges()
	// Second add is invalid (already present), so nothing must apply.
	_, err := m.ApplyBatch(nil, [][2]graph.NodeID{{0, 2}, {3, 4}})
	if !errors.Is(err, ErrEdgeExists) {
		t.Fatalf("batch error = %v, want ErrEdgeExists", err)
	}
	if m.Rep() != repBefore || m.NumEdges() != edgesBefore {
		t.Error("rejected batch mutated the maintainer")
	}
	// Valid batch: removes apply before adds, so an edge can move. The
	// three mutations are absorbed by one fused repair.
	reps, err := m.ApplyBatch([][2]graph.NodeID{{0, 1}}, [][2]graph.NodeID{{0, 1}, {2, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("repairs = %d, want 1 fused repair for the whole batch", len(reps))
	}
	checkCanonical(t, m)

	// A fused batch and sequential application must converge on the same
	// canonical representation (the fingerprint covers COO order).
	seq := newMaintainer(t, m.Graph())
	fused, err := NewMaintainer(m.Graph(), traverse.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	batchRemoves := [][2]graph.NodeID{{2, 7}, {1, 2}}
	batchAdds := [][2]graph.NodeID{{0, 2}, {3, 7}}
	for _, e := range batchRemoves {
		if _, err := seq.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range batchAdds {
		if _, err := seq.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fused.ApplyBatch(batchRemoves, batchAdds); err != nil {
		t.Fatal(err)
	}
	if seq.Fingerprint() != fused.Fingerprint() {
		t.Error("fused batch produced a different canonical edge order than sequential application")
	}
	checkCanonical(t, fused)
}

// TestFingerprintTracksCommits pins the cached fingerprint against the live
// graph's: asked before and after every kind of batch (and after a rejected
// one), the maintainer must never hand out a stale hash.
func TestFingerprintTracksCommits(t *testing.T) {
	m := newMaintainer(t, graph.Cycle(10))
	check := func(when string) {
		t.Helper()
		if got, want := m.Fingerprint(), m.Graph().Fingerprint(); got != want {
			t.Fatalf("%s: maintainer fingerprint %s, live graph %s", when, got, want)
		}
	}
	check("fresh")
	steps := []struct {
		name          string
		removes, adds [][2]graph.NodeID
	}{
		{name: "add", adds: [][2]graph.NodeID{{0, 5}}},
		{name: "remove", removes: [][2]graph.NodeID{{3, 4}}},
		{name: "fused", removes: [][2]graph.NodeID{{0, 5}, {7, 8}}, adds: [][2]graph.NodeID{{1, 6}, {2, 9}, {3, 4}}},
	}
	for _, st := range steps {
		before := m.Fingerprint()
		if _, err := m.ApplyBatch(st.removes, st.adds); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		check(st.name)
		if m.Fingerprint() == before {
			t.Fatalf("%s: fingerprint did not change with the topology", st.name)
		}
	}
	before := m.Fingerprint()
	if _, err := m.ApplyBatch(nil, [][2]graph.NodeID{{1, 6}}); !errors.Is(err, ErrEdgeExists) {
		t.Fatalf("duplicate add: %v, want ErrEdgeExists", err)
	}
	check("rejected batch")
	if m.Fingerprint() != before {
		t.Fatal("rejected batch changed the fingerprint")
	}
}

func TestBatchRejectsRemoveOfBatchAdd(t *testing.T) {
	g := graph.Cycle(8)
	m := newMaintainer(t, g)
	// Removes precede adds: removing an edge only the batch introduces is
	// invalid.
	_, err := m.ApplyBatch([][2]graph.NodeID{{0, 3}}, [][2]graph.NodeID{{0, 3}})
	if !errors.Is(err, ErrEdgeMissing) {
		t.Fatalf("batch error = %v, want ErrEdgeMissing", err)
	}
}

// Apply on a prepared rep's graph returns the successor's from-scratch
// preprocess and leaves the base untouched, whatever the outcome.
func TestApplyOnPreparedRep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ErdosRenyiM(rng, 30, 60)
	opts := traverse.DefaultOptions()
	rep, res, err := band.FromGraph(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := append([]graph.NodeID(nil), rep.Path...)
	edges := append([]graph.Edge(nil), res.Graph.Edges()...)
	var adds [][2]graph.NodeID
	for v := graph.NodeID(1); len(adds) == 0; v++ {
		if !g.HasEdge(0, v) {
			adds = append(adds, [2]graph.NodeID{0, v})
		}
	}
	e0 := g.EdgeAt(0)
	next, nextRes, err := Apply(res.Graph, opts, [][2]graph.NodeID{{e0.Src, e0.Dst}}, adds)
	if err != nil {
		t.Fatal(err)
	}
	checkFresh(t, next, nextRes, opts)
	if nextRes.Graph.NumEdges() != g.NumEdges() || nextRes.Graph.HasEdge(e0.Src, e0.Dst) {
		t.Error("successor graph does not reflect the batch")
	}
	// A rejected batch and an empty one return nothing.
	if r, rr, err := Apply(res.Graph, opts, nil, [][2]graph.NodeID{{e0.Src, e0.Dst}, {e0.Dst, e0.Src}}); !errors.Is(err, ErrEdgeExists) || r != nil || rr != nil {
		t.Errorf("duplicate add: %v, %v, %v; want nil, nil, ErrEdgeExists", r, rr, err)
	}
	if r, rr, err := Apply(res.Graph, opts, nil, nil); err != nil || r != nil || rr != nil {
		t.Errorf("empty batch: %v, %v, %v; want nil, nil, nil", r, rr, err)
	}
	// The base is never modified (copy-on-write).
	if !reflect.DeepEqual(rep.Path, path) || !reflect.DeepEqual(res.Graph.Edges(), edges) {
		t.Error("Apply mutated its base")
	}
}

// Apply reads only the base graph: a prepared rep whose Result carries no
// step trace applies as is, and the successor is canonical.
func TestApplyNeedsNoSource(t *testing.T) {
	g := graph.Cycle(10)
	opts := traverse.DefaultOptions()
	_, res, err := band.FromGraph(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	res.Source = nil
	next, nextRes, err := Apply(res.Graph, opts, nil, [][2]graph.NodeID{{0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	checkFresh(t, next, nextRes, opts)
}

func TestUnsupportedConfigurations(t *testing.T) {
	if _, err := NewMaintainer(graph.Cycle(5), traverse.Options{DropEdges: 0.2}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("edge dropping: %v", err)
	}
	if _, err := NewMaintainer(graph.Cycle(5), traverse.Options{SparsifyFraction: 0.5}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("sparsification: %v", err)
	}
	if _, _, err := Apply(graph.Cycle(5), traverse.Options{SparsifyFraction: 0.5}, nil, [][2]graph.NodeID{{0, 2}}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Apply under sparsification: %v", err)
	}
	dg, err := graph.New(3, []graph.Edge{{Src: 0, Dst: 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaintainer(dg, traverse.DefaultOptions()); !errors.Is(err, ErrUnsupported) {
		t.Errorf("directed graph: %v", err)
	}
	lg, err := graph.New(3, []graph.Edge{{Src: 0, Dst: 0}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaintainer(lg, traverse.DefaultOptions()); !errors.Is(err, ErrUnsupported) {
		t.Errorf("self loop: %v", err)
	}
	pg, err := graph.New(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaintainer(pg, traverse.DefaultOptions()); !errors.Is(err, ErrUnsupported) {
		t.Errorf("parallel edge: %v", err)
	}
}

// A refused graph is described by its first offending edge in COO order,
// whichever vertex's row it sits in.
func TestNonSimpleGraphNamesFirstOffenderInEdgeOrder(t *testing.T) {
	cases := []struct {
		edges []graph.Edge
		want  string
	}{
		{[]graph.Edge{{Src: 3, Dst: 4}, {Src: 4, Dst: 3}, {Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1}}, "duplicate edge (4,3)"},
		{[]graph.Edge{{Src: 3, Dst: 4}, {Src: 2, Dst: 2}, {Src: 4, Dst: 3}, {Src: 0, Dst: 0}}, "self loop at edge 1"},
		{[]graph.Edge{{Src: 1, Dst: 1}, {Src: 1, Dst: 1}}, "self loop at edge 0"},
	}
	for _, c := range cases {
		g, err := graph.New(5, c.edges, false)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewMaintainer(g, traverse.DefaultOptions())
		if !errors.Is(err, ErrUnsupported) || !strings.HasSuffix(err.Error(), c.want) {
			t.Errorf("%v: error %v, want ErrUnsupported ending in %q", c.edges, err, c.want)
		}
	}
}

func TestWindowChangeTriggersRebuild(t *testing.T) {
	// A 4-cycle has mean degree 2; the chord (0,2) lifts it to 2.5, which
	// moves the adaptive window from 2 to 3.
	m, err := NewMaintainer(graph.Cycle(4), traverse.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	oldWindow := m.Rep().Window
	if _, err := m.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if m.Rep().Window == oldWindow {
		t.Fatalf("adding the chord left the adaptive window at %d", oldWindow)
	}
	checkCanonical(t, m)
}

func TestSnapshotSurvivesUpdates(t *testing.T) {
	g := graph.Cycle(30)
	m := newMaintainer(t, g)
	oldRep, oldRes := m.Rep(), m.Result()
	pathCopy := append([]graph.NodeID(nil), oldRep.Path...)
	mask0 := append([]bool(nil), oldRep.Mask[0]...)
	for i := 0; i < 5; i++ {
		if _, err := m.AddEdge(graph.NodeID(i), graph.NodeID(i+10)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Rep() == oldRep {
		t.Fatal("update did not swap the rep pointer")
	}
	if !reflect.DeepEqual(oldRep.Path, pathCopy) || !reflect.DeepEqual(oldRep.Mask[0], mask0) {
		t.Error("published snapshot was mutated by later updates")
	}
	if len(oldRes.Path) != len(pathCopy) {
		t.Error("published result was mutated by later updates")
	}
}

// Property: after arbitrary interleaved adds/removes, the maintained rep is
// byte-identical to a from-scratch preprocess of the live graph.
func TestCanonicalEquivalenceProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyiM(rng, 14, 22)
		m, err := NewMaintainer(g, traverse.DefaultOptions())
		if err != nil {
			return false
		}
		ops := int(opsRaw%24) + 6
		for i := 0; i < ops; i++ {
			u := graph.NodeID(rng.Intn(14))
			v := graph.NodeID(rng.Intn(14))
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				_, _ = m.AddEdge(u, v)
			} else {
				_, _ = m.RemoveEdge(u, v)
			}
		}
		return canonicalMismatch(m) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRepairKindStrings(t *testing.T) {
	want := map[RepairKind]string{
		RepairSplice:  "splice",
		RepairRebuild: "rebuild",
		RepairKind(0): "RepairKind(0)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}
