package train

import (
	"bytes"
	"log"
	"math"
	"strings"
	"testing"

	"mega/internal/datasets"
	"mega/internal/graph"
	"mega/internal/models"
	"mega/internal/traverse"
)

func shardOpts(shards int) Options {
	o := Options{
		Model: "GT", Engine: models.EngineMega,
		Dim: 16, Layers: 2, Heads: 2,
		BatchSize: 8, LR: 3e-3, Epochs: 3, Seed: 1,
		Shards: shards,
	}
	o.Mega.Traverse = traverse.Options{Window: 2}
	return o
}

// TestShardedTrainingTrajectoryBitIdentical is the tentpole acceptance
// test: a full training run at 2 and 4 shard workers leaves every model
// parameter bit-identical to the 1-worker run — the shard engine's
// exchanges and reductions are exact, not approximately associative.
func TestShardedTrainingTrajectoryBitIdentical(t *testing.T) {
	d := tinyDataset(t, "ZINC")

	ref, err := Run(d, shardOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	refParams := ref.Model.Params()

	for _, k := range []int{2, 4} {
		res, err := Run(d, shardOpts(k))
		if err != nil {
			t.Fatal(err)
		}
		params := res.Model.Params()
		if len(params) != len(refParams) {
			t.Fatalf("shards=%d: %d params, want %d", k, len(params), len(refParams))
		}
		for pi, p := range params {
			for i := range p.Data {
				if math.Float64bits(p.Data[i]) != math.Float64bits(refParams[pi].Data[i]) {
					t.Fatalf("shards=%d: param %d element %d diverged from shards=1 trajectory",
						k, pi, i)
				}
			}
		}
		// The trajectories also produced the same losses, necessarily.
		for e := range res.Stats {
			if res.Stats[e].TrainLoss != ref.Stats[e].TrainLoss {
				t.Errorf("shards=%d: epoch %d train loss %v, want %v",
					k, e+1, res.Stats[e].TrainLoss, ref.Stats[e].TrainLoss)
			}
		}
	}
}

// TestShardFallbackCountedAndLogged pins the per-context fallback
// accounting: a training batch whose path is too short to cut into µchunks
// trains through the monolithic engine, and the run reports how many
// contexts did. The log side is covered by capturing the standard logger.
func TestShardFallbackCountedAndLogged(t *testing.T) {
	// A triangle's traversal path (3 rows) cannot be cut into 8 µchunks,
	// so with BatchSize 1 every context must fall back.
	tri, err := graph.New(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	inst := datasets.Instance{
		G:        tri,
		NodeFeat: []int32{0, 1, 0},
		EdgeFeat: []int32{0, 0, 1},
		Target:   1.5,
	}
	d := &datasets.Dataset{
		Name: "tiny-tri", Task: datasets.TaskRegression,
		NumNodeTypes: 2, NumEdgeTypes: 2,
		Train: []datasets.Instance{inst, inst},
		Val:   []datasets.Instance{inst},
		Test:  []datasets.Instance{inst},
	}
	o := shardOpts(2)
	o.BatchSize = 1
	o.Epochs = 1

	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(prev)

	res, err := Run(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardFallbacks != 2 {
		t.Errorf("ShardFallbacks = %d, want 2 (every context)", res.ShardFallbacks)
	}
	// The structural rejection (path shorter than 8 µchunks) must be
	// attributed, not hidden.
	if got := res.ShardFallbackReasons["unshardable"]; got != 2 {
		t.Errorf("ShardFallbackReasons[unshardable] = %d, want 2 (got %v)", got, res.ShardFallbackReasons)
	}
	if n := strings.Count(logged.String(), "fell back to the monolithic engine"); n != 1 {
		t.Errorf("fallback logged %d times, want exactly once:\n%s", n, logged.String())
	}
	if !strings.Contains(logged.String(), "unshardable") {
		t.Errorf("fallback log line does not name the reason:\n%s", logged.String())
	}

	// Shardable runs must not report fallbacks.
	full, err := Run(tinyDataset(t, "ZINC"), shardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if full.ShardFallbacks != 0 {
		t.Errorf("shardable run reported %d fallbacks", full.ShardFallbacks)
	}
	if full.ShardFallbackReasons != nil {
		t.Errorf("shardable run reported fallback reasons: %v", full.ShardFallbackReasons)
	}
}

// TestShardedTrainingValidation covers the option guards.
func TestShardedTrainingValidation(t *testing.T) {
	d := tinyDataset(t, "ZINC")

	o := shardOpts(2)
	o.Engine = models.EngineDGL
	if _, err := Run(d, o); err == nil {
		t.Error("sharded + DGL engine should error")
	}

	o = shardOpts(2)
	o.Model = "GCN"
	if _, err := Run(d, o); err == nil {
		t.Error("sharded + GCN should error")
	}

	o = shardOpts(2)
	o.Profile = true
	if _, err := Run(d, o); err == nil {
		t.Error("sharded + profiling should error")
	}
}
