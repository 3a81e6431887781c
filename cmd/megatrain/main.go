// Command megatrain trains a GNN configuration on one of the evaluation
// datasets under a chosen attention engine, printing per-epoch statistics,
// a convergence chart on the simulated GPU clock, and the kernel profile.
//
// Usage:
//
//	megatrain [-dataset ZINC] [-model GCN|GT] [-engine dgl|mega]
//	          [-dim d] [-layers L] [-batch B] [-epochs E] [-lr r]
//	          [-train n] [-val n] [-drop f] [-sparsify f] [-sparsify-seed s]
//	          [-seed s] [-profile] [-checkpoint model.ckpt]
//	          [-checkpoint-dir dir] [-checkpoint-every 1] [-resume]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -checkpoint, the trained parameters are saved for cmd/megaserve.
// With -checkpoint-dir, training additionally writes a crash-safe
// checkpoint (atomic rename, CRC-verified) every -checkpoint-every epochs;
// -resume continues from the newest good checkpoint in that directory,
// quarantining corrupt files instead of failing.
// -sparsify keeps only that fraction of edges via effective-resistance
// importance sampling (mega engine) before traversal; -sparsify-seed pins
// the sampler independently of -seed (default: same value as -seed).
// -cpuprofile/-memprofile write Go pprof profiles covering the training
// run (see DESIGN.md, "Profiling the Go implementation").
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mega/internal/datasets"
	"mega/internal/models"
	"mega/internal/train"
	"mega/internal/traverse"
	"mega/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "megatrain:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("megatrain", flag.ContinueOnError)
	dsName := fs.String("dataset", "ZINC", "dataset: ZINC, AQSOL, CSL or CYCLES")
	model := fs.String("model", "GCN", "model: GCN, GT or GAT")
	engine := fs.String("engine", "mega", "attention engine: dgl or mega")
	dim := fs.Int("dim", 64, "hidden dimension")
	layers := fs.Int("layers", 4, "attention layers")
	batch := fs.Int("batch", 64, "batch size")
	epochs := fs.Int("epochs", 10, "training epochs")
	lr := fs.Float64("lr", 1e-3, "Adam learning rate")
	trainN := fs.Int("train", 256, "train instances (0 = paper size)")
	valN := fs.Int("val", 64, "validation instances (0 = paper size)")
	drop := fs.Float64("drop", 0, "edge-drop fraction (mega engine)")
	sparsify := fs.Float64("sparsify", 0, "effective-resistance keep fraction in (0,1] (mega engine; 0 = off)")
	sparsifySeed := fs.Int64("sparsify-seed", 0, "sparsifier seed (0 = use -seed)")
	seed := fs.Int64("seed", 1, "seed")
	profile := fs.Bool("profile", true, "attach the GPU simulator")
	ckpt := fs.String("checkpoint", "", "write the trained model here for megaserve")
	ckptDir := fs.String("checkpoint-dir", "", "directory for periodic crash-safe checkpoints")
	ckptEvery := fs.Int("checkpoint-every", 1, "epochs between periodic checkpoints (with -checkpoint-dir)")
	resume := fs.Bool("resume", false, "resume from the newest good checkpoint in -checkpoint-dir")
	cpuProfile := fs.String("cpuprofile", "", "write a Go CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a Go heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "megatrain: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // surface live allocations, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "megatrain: memprofile:", err)
			}
		}()
	}

	ds, err := datasets.Generate(*dsName, datasets.Config{
		TrainSize: *trainN, ValSize: *valN, TestSize: 0, Seed: *seed,
	})
	if err != nil {
		return err
	}

	var kind models.EngineKind
	switch *engine {
	case "dgl":
		kind = models.EngineDGL
	case "mega":
		kind = models.EngineMega
	default:
		return fmt.Errorf("unknown engine %q (want dgl or mega)", *engine)
	}

	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	opts := train.Options{
		Model: *model, Engine: kind,
		Dim: *dim, Layers: *layers,
		BatchSize: *batch, LR: *lr, Epochs: *epochs, Seed: *seed,
		Profile:       *profile,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, Resume: *resume,
	}
	if *drop > 0 || *sparsify > 0 {
		ss := *sparsifySeed
		if ss == 0 {
			ss = *seed
		}
		opts.Mega.Traverse = traverse.Options{
			EdgeCoverage: 1, DropEdges: *drop, Start: -1, Seed: *seed,
			SparsifyFraction: *sparsify, SparsifySeed: ss,
		}
	}

	res, err := train.Run(ds, opts)
	if err != nil {
		return err
	}

	if *ckpt != "" {
		if err := train.SaveCheckpointFile(*ckpt, res.Checkpoint(*dsName), res.Model); err != nil {
			return fmt.Errorf("write checkpoint: %w", err)
		}
		fmt.Printf("checkpoint written to %s (%d params)\n", *ckpt, res.Params)
	}
	if res.ResumedEpoch > 0 {
		fmt.Printf("resumed from epoch %d\n", res.ResumedEpoch)
	}
	if res.LastCheckpoint != "" {
		fmt.Printf("periodic checkpoint: %s (save failures %d, quarantined %d)\n",
			res.LastCheckpoint, res.CheckpointFailures, res.QuarantinedCheckpoints)
	}

	metricName := "valMAE"
	if ds.Task == datasets.TaskClassification {
		metricName = "valAcc"
	}
	fmt.Printf("%s on %s (%s engine, %d params)\n", *model, *dsName, *engine, res.Params)
	fmt.Printf("%6s %14s %12s %12s %12s\n", "epoch", "simTime(ms)", "trainLoss", "valLoss", metricName)
	curve := viz.Series{Name: *engine}
	for _, s := range res.Stats {
		fmt.Printf("%6d %14.3f %12.4f %12.4f %12.4f\n",
			s.Epoch, s.SimTime.Seconds()*1e3, s.TrainLoss, s.ValLoss, s.ValMetric)
		curve.X = append(curve.X, s.SimTime.Seconds()*1e3)
		curve.Y = append(curve.Y, s.ValLoss)
	}
	fmt.Println()
	fmt.Print(viz.LineChart("val loss vs simulated time (ms)", 64, 12, curve))

	if res.Sim != nil {
		fmt.Println("\nkernel profile:")
		bars := make([]viz.Bar, 0, 8)
		for _, k := range res.Sim.Stats() {
			bars = append(bars, viz.Bar{Label: k.Name, Value: k.Cycles})
		}
		fmt.Print(viz.BarChart("cycles by kernel", 40, bars))
		fmt.Printf("\nweighted SM efficiency %.3f, memory-stall share %.3f, simulated total %v\n",
			res.Sim.WeightedSMEfficiency(), res.Sim.WeightedStallPct(), res.Sim.TotalTime())
	}
	return nil
}
