package train

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"mega/internal/datasets"
	"mega/internal/models"
)

// pinnedLossFile holds one line per case: name, then the Float64bits (hex)
// of TrainLoss and ValLoss for each epoch in turn. It was generated at
// commit b86edb5, whose float64 matmul was three scalar loop nests, so it
// pins any rewrite of the dense kernels to that arithmetic rather than to
// itself. There is no in-tree writer, for the same reason as
// internal/traverse/testdata/pinned_digests.txt: to extend it, check a
// trusted parent out of tree, run pinnedLossCases through pinnedLossBits
// there and append the lines.
const pinnedLossFile = "testdata/pinned_losses.txt"

type pinnedLossCase struct {
	name string
	opts Options
}

// pinnedLossCases are the benchmark's training configuration (GT, dim 64,
// 4 layers, 4 heads, batch 16, fused attention) on both engines, two epochs
// of it through the shard engine at k=2, and one epoch of each other model
// family. The sharded case pins the shard engine's own bits, which
// TestShardedTrainingTrajectoryBitIdentical only holds equal across k.
func pinnedLossCases() []pinnedLossCase {
	gt := Options{Model: "GT", Dim: 64, Layers: 4, Heads: 4, BatchSize: 16, Epochs: 4, Seed: 42, Attention: "fused"}
	mega, dgl := gt, gt
	mega.Engine, dgl.Engine = models.EngineMega, models.EngineDGL
	shards2 := mega
	shards2.Shards, shards2.Epochs = 2, 2
	gcn, gat := mega, mega
	gcn.Model, gcn.Epochs = "GCN", 1
	gat.Model, gat.Epochs = "GAT", 1
	return []pinnedLossCase{{"GT/mega", mega}, {"GT/dgl", dgl}, {"GT/mega/shards2", shards2}, {"GCN/mega", gcn}, {"GAT/mega", gat}}
}

func pinnedLossBits(t *testing.T, ds *datasets.Dataset, c pinnedLossCase, threads int) []string {
	t.Helper()
	c.opts.Threads = threads
	res, err := Run(ds, c.opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var bits []string
	for _, s := range res.Stats {
		bits = append(bits,
			strconv.FormatUint(math.Float64bits(s.TrainLoss), 16),
			strconv.FormatUint(math.Float64bits(s.ValLoss), 16))
	}
	return bits
}

// TestLossTrajectoryMatchesPinned asserts that training reproduces the
// recorded parent's loss trajectory bit for bit, at one thread and at two.
func TestLossTrajectoryMatchesPinned(t *testing.T) {
	f, err := os.Open(pinnedLossFile)
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
	ds, err := datasets.Generate("ZINC", datasets.Config{TrainSize: 32, ValSize: 16, TestSize: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := pinnedLossCases()
	if len(want) != len(cases) {
		t.Fatalf("%s has %d cases, the corpus %d", pinnedLossFile, len(want), len(cases))
	}
	for _, c := range cases {
		for _, threads := range []int{1, 2} {
			got := pinnedLossBits(t, ds, c, threads)
			if fmt.Sprint(got) != fmt.Sprint(want[c.name]) {
				t.Errorf("%s threads=%d:\n got  %v\n want %v", c.name, threads, got, want[c.name])
			}
		}
	}
}
