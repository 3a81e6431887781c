// Distributed: partition a batched workload across worker counts and
// compare the communication structure of conventional edge-cut partitioning
// against MEGA's path partitioning, then run a live sharded forward at every
// k of the table to verify the analytical counts (exiting non-zero on a
// mismatch) — the §IV-B6 analysis as a runnable tool.
package main

import (
	"flag"
	"fmt"
	"os"

	"mega"
	"mega/internal/band"
	"mega/internal/dist"
	"mega/internal/graph"
	"mega/internal/traverse"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("distributed", flag.ContinueOnError)
	graphs := fs.Int("graphs", 32, "member graphs in the batch")
	size := fs.Int("size", 20, "vertices per member graph")
	dim := fs.Int("dim", 64, "embedding dimension")
	layers := fs.Int("layers", 4, "halo-exchange rounds")
	seed := fs.Int64("seed", 9, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Build the workload: a batch of small molecule-like graphs with
	// scrambled node IDs (real node IDs carry no locality).
	rng := mega.NewRand(*seed)
	members := make([]*graph.Graph, *graphs)
	for i := range members {
		members[i] = graph.RandomTree(rng, *size)
	}
	b, err := graph.NewBatch(members)
	if err != nil {
		return err
	}
	perm := graph.RandomPermutation(rng, b.Merged.NumNodes())
	g, err := graph.PermuteNodes(b.Merged, perm)
	if err != nil {
		return err
	}
	rep, tres, err := band.FromGraph(g, traverse.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d graphs, %d total vertices, %d edges; path length %d (ω=%d)\n\n",
		*graphs, g.NumNodes(), g.NumEdges(), rep.Len(), rep.Window)

	ks := []int{2, 4, 8, 16}
	fmt.Printf("%4s | %12s %10s %8s | %12s %10s %8s\n",
		"k", "edge msgs", "edge KB", "fanout", "path msgs", "path KB", "fanout")
	paths := make([]dist.CommStats, len(ks))
	for i, k := range ks {
		edge, err := dist.AnalyzeEdgePartition(g, k, *dim)
		if err != nil {
			return err
		}
		path, err := dist.AnalyzePathPartition(rep, k, *dim)
		if err != nil {
			return err
		}
		paths[i] = path
		fmt.Printf("%4d | %12d %10.1f %8d | %12d %10.1f %8d\n",
			k, edge.Messages, float64(edge.Bytes)/1024, edge.MaxFanout,
			path.Messages, float64(path.Bytes)/1024, path.MaxFanout)
	}

	// The live run counts every message the shard workers exchange; it
	// must equal the path analysis times the layer count, exactly.
	fmt.Printf("\nlive sharded GNN forward (%d layers, goroutine workers), observed vs analysis x %d:\n",
		*layers, *layers)
	fmt.Printf("%4s | %12s %12s | %12s %12s | %s\n",
		"k", "obs msgs", "ana msgs", "obs KB", "ana KB", "check")
	mismatches := 0
	for i, k := range ks {
		res, err := dist.RunHaloExchange(g, rep, tres, k, *dim, *layers)
		if err != nil {
			return err
		}
		wantMsgs, wantBytes := paths[i].Messages**layers, paths[i].Bytes*int64(*layers)
		check := "ok"
		if res.Messages != wantMsgs || res.Bytes != wantBytes {
			check = "MISMATCH"
			mismatches++
		}
		fmt.Printf("%4d | %12d %12d | %12.1f %12.1f | %s\n",
			k, res.Messages, wantMsgs, float64(res.Bytes)/1024, float64(wantBytes)/1024, check)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d of %d live runs disagree with the analysis", mismatches, len(ks))
	}
	fmt.Println("\nreading: edge cuts approach all-to-all as k grows; path chunks talk")
	fmt.Println("only to their two neighbours with fixed-size halos — O(k) messages.")
	return nil
}
