package models

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mega/internal/datasets"
	"mega/internal/gpusim"
	"mega/internal/graph"
	"mega/internal/nn"
	"mega/internal/tensor"
	"mega/internal/traverse"
)

// testInstances builds a small deterministic batch.
func testInstances(t *testing.T, n int) []datasets.Instance {
	t.Helper()
	d := datasets.ZINC(datasets.Config{TrainSize: n, ValSize: 0, TestSize: 0, Seed: 42})
	return d.Train
}

func smallConfig() Config {
	return Config{Dim: 16, Layers: 2, Heads: 2, NodeTypes: 28, EdgeTypes: 4, OutDim: 1, Seed: 1}
}

func TestDGLContextShape(t *testing.T) {
	insts := testInstances(t, 4)
	ctx, err := NewDGLContext(insts, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes, wantEdges := 0, 0
	for _, inst := range insts {
		wantNodes += inst.G.NumNodes()
		wantEdges += inst.G.NumEdges()
	}
	if ctx.NumRows != wantNodes {
		t.Errorf("rows = %d, want %d", ctx.NumRows, wantNodes)
	}
	if ctx.NumEdges != wantEdges {
		t.Errorf("edges = %d, want %d", ctx.NumEdges, wantEdges)
	}
	if ctx.NumPairs() != 2*wantEdges {
		t.Errorf("pairs = %d, want %d", ctx.NumPairs(), 2*wantEdges)
	}
	if len(ctx.NodeTypeIDs) != wantNodes || len(ctx.GraphSeg) != wantNodes {
		t.Error("per-row metadata sized wrong")
	}
	if ctx.NumGraphs != 4 || ctx.Targets.Rows() != 4 {
		t.Error("targets sized wrong")
	}
}

func TestMegaContextShape(t *testing.T) {
	insts := testInstances(t, 4)
	ctx, err := NewMegaContext(insts, MegaOptions{}, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := 0
	for _, inst := range insts {
		wantNodes += inst.G.NumNodes()
	}
	// Paths at least visit every node.
	if ctx.NumRows < wantNodes {
		t.Errorf("rows = %d, want >= %d", ctx.NumRows, wantNodes)
	}
	if ctx.posToNode == nil || ctx.numNodeSlots != wantNodes {
		t.Error("mega context must record its node slots for duplicate sync")
	}
	// Full coverage: every undirected edge appears as >= 2 directed pairs.
	if ctx.NumPairs() < 2*ctx.NumEdges {
		t.Errorf("pairs = %d, want >= %d", ctx.NumPairs(), 2*ctx.NumEdges)
	}
	for p := range ctx.RecvIdx {
		if ctx.RecvIdx[p] < 0 || int(ctx.RecvIdx[p]) >= ctx.NumRows {
			t.Fatalf("pair %d recv out of range", p)
		}
		if ctx.EdgeIdx[p] < 0 || int(ctx.EdgeIdx[p]) >= ctx.NumEdges {
			t.Fatalf("pair %d edge out of range", p)
		}
	}
}

func TestModelsForwardShapes(t *testing.T) {
	insts := testInstances(t, 3)
	for _, tt := range []struct {
		name  string
		build func() Model
	}{
		{name: "GCN", build: func() Model { return NewGatedGCN(smallConfig()) }},
		{name: "GT", build: func() Model { return NewGT(smallConfig()) }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			m := tt.build()
			for _, engine := range []string{"dgl", "mega"} {
				var ctx *Context
				var err error
				if engine == "dgl" {
					ctx, err = NewDGLContext(insts, nil, 16)
				} else {
					ctx, err = NewMegaContext(insts, MegaOptions{}, nil, 16)
				}
				if err != nil {
					t.Fatal(err)
				}
				out := m.Forward(ctx)
				if out.Rows() != 3 || out.Cols() != 1 {
					t.Errorf("%s/%s: output %dx%d, want 3x1", tt.name, engine, out.Rows(), out.Cols())
				}
				if !out.IsFinite() {
					t.Errorf("%s/%s: non-finite output", tt.name, engine)
				}
			}
		})
	}
}

func TestParameterVolumesMatchTableI(t *testing.T) {
	// Table I: GCN attention blocks have 5d² parameters per layer, GT 14d².
	d := 16
	cfg := Config{Dim: d, Layers: 3, Heads: 2, NodeTypes: 4, EdgeTypes: 2, OutDim: 1, Seed: 1}

	gcn := NewGatedGCN(cfg)
	gcnTotal := nn.CountParams(gcn.Params())
	// Layers contribute 5d² weights (+5d biases +4d norm affines).
	gcnLayerPart := 3 * (5*d*d + 5*d + 4*d)
	if got := gcnTotal - gcnOverhead(cfg); got != gcnLayerPart {
		t.Errorf("GCN layer params = %d, want %d (5d² per layer)", got, gcnLayerPart)
	}

	gt := NewGT(cfg)
	gtTotal := nn.CountParams(gt.Params())
	// Weights 14d²; biases: q,k,v,o,we,oe = 6d, FFNs = 2d+d+2d+d = 6d;
	// four norms = 8d affine parameters.
	gtLayerPart := 3 * (14*d*d + 12*d + 8*d)
	if got := gtTotal - gcnOverhead(cfg); got != gtLayerPart {
		t.Errorf("GT layer params = %d, want %d (14d² per layer)", got, gtLayerPart)
	}
}

// gcnOverhead counts the shared encoder + readout parameters.
func gcnOverhead(cfg Config) int {
	embed := cfg.NodeTypes*cfg.Dim + cfg.EdgeTypes*cfg.Dim
	readout := cfg.Dim*(cfg.Dim/2) + cfg.Dim/2 + (cfg.Dim/2)*cfg.OutDim + cfg.OutDim
	return embed + readout
}

func TestGTHasMoreGraphOpsThanGCN(t *testing.T) {
	// Table I: GT issues 5x the edge scatters of GCN; both gather twice.
	insts := testInstances(t, 2)
	ctx, err := NewDGLContext(insts, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	gcnOps := NewGatedGCN(smallConfig()).CountOps(ctx)
	gtOps := NewGT(smallConfig()).CountOps(ctx)
	if gtOps.GatherCalls <= gcnOps.GatherCalls {
		t.Errorf("GT gathers %d should exceed GCN %d", gtOps.GatherCalls, gcnOps.GatherCalls)
	}
	if gtOps.ScatterCalls <= gcnOps.ScatterCalls {
		t.Errorf("GT scatters %d should exceed GCN %d", gtOps.ScatterCalls, gcnOps.ScatterCalls)
	}
	if gtOps.Params <= gcnOps.Params {
		t.Errorf("GT params %d should exceed GCN %d", gtOps.Params, gcnOps.Params)
	}
}

// pathInstance builds an instance whose graph is a simple path: its
// traversal has no revisits and no virtual edges, so the MEGA engine
// computes exactly the same function as the DGL engine.
func pathInstance(n int) datasets.Instance {
	g := graph.Path(n)
	nf := make([]int32, n)
	ef := make([]int32, g.NumEdges())
	for i := range nf {
		nf[i] = int32(i % 4)
	}
	for i := range ef {
		ef[i] = int32(i % 2)
	}
	return datasets.Instance{G: g, NodeFeat: nf, EdgeFeat: ef, Target: 1}
}

func TestEnginesAgreeOnRevisitFreeGraph(t *testing.T) {
	insts := []datasets.Instance{pathInstance(9)}
	dglCtx, err := NewDGLContext(insts, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	megaCtx, err := NewMegaContext(insts, MegaOptions{
		Traverse: traverse.Options{Window: 1, EdgeCoverage: 1},
	}.PinStart(0), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if megaCtx.NumRows != 9 {
		t.Fatalf("path graph should have no revisits: rows = %d", megaCtx.NumRows)
	}
	for _, tt := range []struct {
		name  string
		build func() Model
	}{
		{name: "GCN", build: func() Model { return NewGatedGCN(smallConfig()) }},
		{name: "GT", build: func() Model { return NewGT(smallConfig()) }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			m := tt.build()
			a := m.Forward(dglCtx).Item()
			b := m.Forward(megaCtx).Item()
			if math.Abs(a-b) > 1e-9 {
				t.Errorf("engines disagree on revisit-free graph: dgl %v vs mega %v", a, b)
			}
		})
	}
}

func TestGradientsFlowToAllParams(t *testing.T) {
	insts := testInstances(t, 2)
	ctx, err := NewDGLContext(insts, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name  string
		build func() Model
	}{
		{name: "GCN", build: func() Model { return NewGatedGCN(smallConfig()) }},
		{name: "GT", build: func() Model { return NewGT(smallConfig()) }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			m := tt.build()
			out := m.Forward(ctx)
			tensor.MSELoss(out, ctx.Targets).Backward()
			withGrad := 0
			for _, p := range m.Params() {
				if p.Grad != nil {
					nz := false
					for _, g := range p.Grad {
						if g != 0 {
							nz = true
							break
						}
					}
					if nz {
						withGrad++
					}
				}
			}
			// The overwhelming majority of parameters must receive
			// gradient. Legitimate exceptions: unused embedding rows,
			// and the final layer's edge stream (its output is
			// discarded, as in the reference implementations).
			if frac := float64(withGrad) / float64(len(m.Params())); frac < 0.8 {
				t.Errorf("only %d/%d params got gradient", withGrad, len(m.Params()))
			}
		})
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	insts := testInstances(t, 8)
	for _, engine := range []string{"dgl", "mega"} {
		t.Run(engine, func(t *testing.T) {
			var ctx *Context
			var err error
			if engine == "dgl" {
				ctx, err = NewDGLContext(insts, nil, 16)
			} else {
				ctx, err = NewMegaContext(insts, MegaOptions{}, nil, 16)
			}
			if err != nil {
				t.Fatal(err)
			}
			m := NewGatedGCN(smallConfig())
			opt := nn.NewAdam(m.Params(), 3e-3)
			var first, last float64
			for step := 0; step < 30; step++ {
				opt.ZeroGrad()
				loss := tensor.MSELoss(m.Forward(ctx), ctx.Targets)
				loss.Backward()
				opt.Step()
				if step == 0 {
					first = loss.Item()
				}
				last = loss.Item()
			}
			if last >= first {
				t.Errorf("loss did not decrease: %v -> %v", first, last)
			}
		})
	}
}

func TestProfiledForwardEmitsExpectedKernels(t *testing.T) {
	insts := testInstances(t, 4)

	simDGL := gpusim.New(gpusim.GTX1080())
	ctxD, err := NewDGLContext(insts, simDGL, 16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewGatedGCN(smallConfig())
	_ = m.Forward(ctxD)
	for _, k := range []string{"sgemm", "dgl-gather", "dgl-scatter", "cub"} {
		if _, ok := simDGL.Kernel(k); !ok {
			t.Errorf("dgl profile missing kernel %q", k)
		}
	}
	if _, ok := simDGL.Kernel("mega-band"); ok {
		t.Error("dgl profile should not contain mega kernels")
	}

	simMega := gpusim.New(gpusim.GTX1080())
	ctxM, err := NewMegaContext(insts, MegaOptions{}, simMega, 16)
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Forward(ctxM)
	for _, k := range []string{"sgemm", "mega-band"} {
		if _, ok := simMega.Kernel(k); !ok {
			t.Errorf("mega profile missing kernel %q", k)
		}
	}
	for _, k := range []string{"dgl-gather", "dgl-scatter", "cub"} {
		if _, ok := simMega.Kernel(k); ok {
			t.Errorf("mega profile should not contain %q", k)
		}
	}
}

func TestBackwardProfilingReplays(t *testing.T) {
	insts := testInstances(t, 2)
	sim := gpusim.New(gpusim.GTX1080())
	ctx, err := NewDGLContext(insts, sim, 16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewGatedGCN(smallConfig())
	_ = m.Forward(ctx)
	fwdCycles := sim.TotalCycles()
	ctx.Prof.Backward()
	if sim.TotalCycles() < 2.5*fwdCycles {
		t.Errorf("backward accounting too small: fwd %v total %v", fwdCycles, sim.TotalCycles())
	}
}

func TestMegaProfileFasterThanDGL(t *testing.T) {
	// The headline claim at profile level: one GT training step under
	// MEGA's kernels should cost fewer simulated cycles than under DGL's.
	insts := testInstances(t, 16)
	run := func(engine EngineKind) float64 {
		sim := gpusim.New(gpusim.GTX1080())
		var ctx *Context
		var err error
		if engine == EngineDGL {
			ctx, err = NewDGLContext(insts, sim, 64)
		} else {
			ctx, err = NewMegaContext(insts, MegaOptions{}, sim, 64)
		}
		if err != nil {
			t.Fatal(err)
		}
		m := NewGT(Config{Dim: 64, Layers: 4, Heads: 4, NodeTypes: 28, EdgeTypes: 4, OutDim: 1, Seed: 1})
		_ = m.Forward(ctx)
		ctx.Prof.Backward()
		return sim.TotalCycles()
	}
	dgl := run(EngineDGL)
	mega := run(EngineMega)
	if mega >= dgl {
		t.Errorf("mega cycles %v should be below dgl %v", mega, dgl)
	}
	t.Logf("speedup: %.2fx", dgl/mega)
}

func TestClassificationOutput(t *testing.T) {
	d := datasets.CSL(datasets.Config{TrainSize: 8, ValSize: 0, TestSize: 0, Seed: 1})
	ctx, err := NewDGLContext(d.Train, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.NodeTypes = d.NumNodeTypes
	cfg.EdgeTypes = d.NumEdgeTypes
	cfg.OutDim = d.NumClasses
	m := NewGT(cfg)
	out := m.Forward(ctx)
	if out.Rows() != 8 || out.Cols() != d.NumClasses {
		t.Fatalf("logits %dx%d", out.Rows(), out.Cols())
	}
	loss := tensor.CrossEntropyLoss(out, ctx.Labels)
	if !loss.IsFinite() {
		t.Error("non-finite classification loss")
	}
}

func TestEngineKindString(t *testing.T) {
	if EngineDGL.String() != "dgl" || EngineMega.String() != "mega" {
		t.Error("EngineKind strings wrong")
	}
}

func BenchmarkGCNForwardDGL(b *testing.B) {
	d := datasets.ZINC(datasets.Config{TrainSize: 32, ValSize: 0, TestSize: 0, Seed: 1})
	ctx, err := NewDGLContext(d.Train, nil, 64)
	if err != nil {
		b.Fatal(err)
	}
	m := NewGatedGCN(Config{Dim: 64, Layers: 4, NodeTypes: 28, EdgeTypes: 4, OutDim: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forward(ctx)
	}
}

func BenchmarkGCNForwardMega(b *testing.B) {
	d := datasets.ZINC(datasets.Config{TrainSize: 32, ValSize: 0, TestSize: 0, Seed: 1})
	ctx, err := NewMegaContext(d.Train, MegaOptions{}, nil, 64)
	if err != nil {
		b.Fatal(err)
	}
	m := NewGatedGCN(Config{Dim: 64, Layers: 4, NodeTypes: 28, EdgeTypes: 4, OutDim: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forward(ctx)
	}
}

var _ = rand.New // keep rand import if unused by edits

// starInstance forces revisits: a hub with many spokes at window 1.
func starInstance(spokes int) datasets.Instance {
	edges := make([]graph.Edge, spokes)
	for i := range edges {
		edges[i] = graph.Edge{Src: 0, Dst: graph.NodeID(i + 1)}
	}
	g := graph.MustNew(spokes+1, edges, false)
	return datasets.Instance{
		G:        g,
		NodeFeat: make([]int32, spokes+1),
		EdgeFeat: make([]int32, spokes),
		Target:   1,
	}
}

func TestSyncDuplicatesEqualisesRows(t *testing.T) {
	insts := []datasets.Instance{starInstance(6)}
	ctx, err := NewMegaContext(insts, MegaOptions{
		Traverse: traverse.Options{Window: 1, EdgeCoverage: 1},
	}.PinStart(0), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.NumRows <= 7 {
		t.Fatalf("star at ω=1 must have revisits: rows = %d", ctx.NumRows)
	}
	// Distinct values per row, then sync: duplicates of the same node
	// must converge to a common value.
	h := tensor.Zeros(ctx.NumRows, 4)
	for i := 0; i < ctx.NumRows; i++ {
		for j := 0; j < 4; j++ {
			h.Set(i, j, float64(i*10+j))
		}
	}
	synced := ctx.SyncDuplicates(h)
	// Rows that were duplicates of the same node must agree exactly after
	// synchronisation; with distinct pre-sync values, agreement can only
	// come from the sync averaging.
	agree := 0
	for a := 0; a < ctx.NumRows; a++ {
		for b := a + 1; b < ctx.NumRows; b++ {
			same := true
			for j := 0; j < 4; j++ {
				if synced.At(a, j) != synced.At(b, j) {
					same = false
					break
				}
			}
			if same {
				agree++
			}
		}
	}
	if agree == 0 {
		t.Error("no duplicate rows agree after sync")
	}
}

func TestMegaReadoutWeighsNodesEqually(t *testing.T) {
	// Exact node-level readout: a star's hub appears k times in the
	// path, but the readout must weigh it once. With constant row values
	// per PATH POSITION, position-mean and node-mean differ unless the
	// two-stage readout is used.
	insts := []datasets.Instance{starInstance(5)}
	ctx, err := NewMegaContext(insts, MegaOptions{
		Traverse: traverse.Options{Window: 1, EdgeCoverage: 1},
	}.PinStart(0), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: 1.0 at every position of the hub (node 0), 0 elsewhere. The
	// hub's positions are found through the sync grouping: its rows form
	// the largest group of positions synchronised to a common value.
	h := tensor.Zeros(ctx.NumRows, 1)
	hubRows := 0
	probe := tensor.Zeros(ctx.NumRows, 1)
	for i := 0; i < ctx.NumRows; i++ {
		probe.Set(i, 0, float64(i))
	}
	synced := ctx.SyncDuplicates(probe)
	groups := make(map[float64][]int)
	for i := 0; i < ctx.NumRows; i++ {
		groups[synced.At(i, 0)] = append(groups[synced.At(i, 0)], i)
	}
	var hubGroup []int
	for _, g := range groups {
		if len(g) > len(hubGroup) {
			hubGroup = g
		}
	}
	if len(hubGroup) < 2 {
		t.Fatal("no duplicated node found in star path")
	}
	for _, i := range hubGroup {
		h.Set(i, 0, 1)
		hubRows++
	}
	pooled := ctx.Readout(h)
	// Node-mean: hub contributes 1, five spokes contribute 0 -> 1/6.
	want := 1.0 / 6.0
	if got := pooled.At(0, 0); got != want {
		t.Errorf("readout = %v, want %v (node-weighted); position-weighted would be %v",
			got, want, float64(hubRows)/float64(ctx.NumRows))
	}
}

// Property: on revisit-free graphs (paths) of any size with any features,
// the two engines compute identical outputs.
func TestEnginesAgreeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%16) + 3
		rng := rand.New(rand.NewSource(seed))
		g := graph.Path(n)
		nf := make([]int32, n)
		for i := range nf {
			nf[i] = int32(rng.Intn(4))
		}
		ef := make([]int32, g.NumEdges())
		for i := range ef {
			ef[i] = int32(rng.Intn(2))
		}
		insts := []datasets.Instance{{G: g, NodeFeat: nf, EdgeFeat: ef, Target: 1}}
		dglCtx, err := NewDGLContext(insts, nil, 16)
		if err != nil {
			return false
		}
		megaCtx, err := NewMegaContext(insts, MegaOptions{
			Traverse: traverse.Options{Window: 1, EdgeCoverage: 1},
		}.PinStart(0), nil, 16)
		if err != nil {
			return false
		}
		if megaCtx.NumRows != n {
			return false // path traversal must be revisit-free
		}
		m := NewGatedGCN(Config{Dim: 16, Layers: 2, NodeTypes: 4, EdgeTypes: 2, OutDim: 1, Seed: seed})
		a := m.Forward(dglCtx).Item()
		b := m.Forward(megaCtx).Item()
		return math.Abs(a-b) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGATForwardAndTraining(t *testing.T) {
	insts := testInstances(t, 6)
	for _, engine := range []string{"dgl", "mega"} {
		t.Run(engine, func(t *testing.T) {
			var ctx *Context
			var err error
			if engine == "dgl" {
				ctx, err = NewDGLContext(insts, nil, 16)
			} else {
				ctx, err = NewMegaContext(insts, MegaOptions{}, nil, 16)
			}
			if err != nil {
				t.Fatal(err)
			}
			m := NewGAT(smallConfig())
			out := m.Forward(ctx)
			if out.Rows() != 6 || out.Cols() != 1 {
				t.Fatalf("output %dx%d", out.Rows(), out.Cols())
			}
			if !out.IsFinite() {
				t.Fatal("non-finite output")
			}
			opt := nn.NewAdam(m.Params(), 3e-3)
			var first, last float64
			for step := 0; step < 25; step++ {
				opt.ZeroGrad()
				loss := tensor.MSELoss(m.Forward(ctx), ctx.Targets)
				loss.Backward()
				opt.Step()
				if step == 0 {
					first = loss.Item()
				}
				last = loss.Item()
			}
			if last >= first {
				t.Errorf("GAT loss did not decrease: %v -> %v", first, last)
			}
		})
	}
}

func TestGATEnginesAgreeOnRevisitFreeGraph(t *testing.T) {
	insts := []datasets.Instance{pathInstance(8)}
	dglCtx, err := NewDGLContext(insts, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	megaCtx, err := NewMegaContext(insts, MegaOptions{
		Traverse: traverse.Options{Window: 1, EdgeCoverage: 1},
	}.PinStart(0), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewGAT(smallConfig())
	a := m.Forward(dglCtx).Item()
	b := m.Forward(megaCtx).Item()
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("GAT engines disagree: %v vs %v", a, b)
	}
}

func TestGATLighterThanGT(t *testing.T) {
	gat := nn.CountParams(NewGAT(smallConfig()).Params())
	gt := nn.CountParams(NewGT(smallConfig()).Params())
	gcn := nn.CountParams(NewGatedGCN(smallConfig()).Params())
	if gat >= gcn || gcn >= gt {
		t.Errorf("param ordering wrong: GAT %d, GCN %d, GT %d", gat, gcn, gt)
	}
}
