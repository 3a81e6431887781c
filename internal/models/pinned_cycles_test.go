package models

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"mega/internal/gpusim"
	"mega/internal/tensor"
)

// pinnedCyclesFile holds one line per case: model/engine, then the
// Float64bits (hex) of the simulator's TotalCycles after the forward and
// after the backward replay. gpusim's L2 is a set-associative LRU, so equal
// totals mean the same simulated kernels in the same order. It was
// generated at commit 8b7ac03, whose GT node and edge streams emitted each
// linear, activation and norm from a separate Context call, so it pins any
// fusion of those calls to the emission stream it replaced — which
// TestFusedProfilingMatchesStaged cannot, since staged and fused share the
// streams. There is no in-tree writer, as for pinned_f32.txt: to extend it,
// check a trusted parent out of tree, run pinnedCycleBits there and append
// the lines.
const pinnedCyclesFile = "testdata/pinned_cycles.txt"

// pinnedCycleModels are the three production model families.
var pinnedCycleModels = map[string]func(Config) Model{
	"GT":  func(c Config) Model { return NewGT(c) },
	"GAT": func(c Config) Model { return NewGAT(c) },
	"GCN": func(c Config) Model { return NewGatedGCN(c) },
}

// pinnedCycleBits runs one profiled training step of model kind on engine
// over six ZINC graphs and returns the forward and total cycle bits.
func pinnedCycleBits(t *testing.T, kind string, engine EngineKind) []string {
	t.Helper()
	insts := testInstances(t, 6)
	sim := gpusim.New(gpusim.GTX1080())
	var ctx *Context
	var err error
	if engine == EngineMega {
		ctx, err = NewMegaContext(insts, MegaOptions{}, sim, 16)
	} else {
		ctx, err = NewDGLContext(insts, sim, 16)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := pinnedCycleModels[kind](smallConfig()).Forward(ctx)
	fwd := sim.TotalCycles()
	tensor.MAELoss(out, ctx.Targets).Backward()
	ctx.Prof.Backward()
	return []string{
		strconv.FormatUint(math.Float64bits(fwd), 16),
		strconv.FormatUint(math.Float64bits(sim.TotalCycles()), 16),
	}
}

// TestProfilingMatchesPinnedCycles asserts that every model family on both
// engines emits the recorded parent's simulated kernel stream.
func TestProfilingMatchesPinnedCycles(t *testing.T) {
	f, err := os.Open(pinnedCyclesFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string][]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			want[fields[0]] = fields[1:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	engines := []EngineKind{EngineMega, EngineDGL}
	if len(want) != len(pinnedCycleModels)*len(engines) {
		t.Fatalf("%s has %d cases, the corpus %d", pinnedCyclesFile, len(want), len(pinnedCycleModels)*len(engines))
	}
	for kind := range pinnedCycleModels {
		for _, engine := range engines {
			name := kind + "/" + engine.String()
			if got := pinnedCycleBits(t, kind, engine); fmt.Sprint(got) != fmt.Sprint(want[name]) {
				t.Errorf("%s:\n got  %v\n want %v", name, got, want[name])
			}
		}
	}
}
