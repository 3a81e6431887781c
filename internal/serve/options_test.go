package serve

import (
	"errors"
	"runtime"
	"testing"

	"mega/internal/compute"
	"mega/internal/datasets"
	"mega/internal/models"
	"mega/internal/train"
	"mega/internal/traverse"
)

// badOptions lists one Options value per check Validate makes, each
// breaking exactly that check: a Precision that names neither arithmetic,
// float32 on the DGL engine, and each traversal bound.
var badOptions = []struct {
	name string
	opts Options
}{
	{"precision f16", Options{Precision: "f16"}},
	{"f32 on dgl", Options{Precision: PrecisionF32, Engine: models.EngineDGL}},
	{"sparsify negative", traverseOpts(traverse.Options{SparsifyFraction: -0.1})},
	{"sparsify above 1", traverseOpts(traverse.Options{SparsifyFraction: 1.5})},
	{"coverage negative", traverseOpts(traverse.Options{EdgeCoverage: -0.5})},
	{"coverage above 1", traverseOpts(traverse.Options{EdgeCoverage: 2})},
	{"drop negative", traverseOpts(traverse.Options{DropEdges: -0.1})},
	{"drop 1", traverseOpts(traverse.Options{DropEdges: 1})},
	{"drop strategy unknown", traverseOpts(traverse.Options{DropStrategy: traverse.DropRedundant + 1})},
}

func traverseOpts(t traverse.Options) Options {
	return Options{Mega: models.MegaOptions{Traverse: t}}
}

// TestOptionsValidate pins what Validate accepts, and that it rejects
// every badOptions entry rather than defaulting silently.
func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"zero value", Options{}},
		{"precision f64", Options{Precision: PrecisionF64}},
		{"precision f32", Options{Precision: PrecisionF32}},
		{"f32 on mega", Options{Precision: PrecisionF32, Engine: models.EngineMega}},
		{"f64 on dgl", Options{Precision: PrecisionF64, Engine: models.EngineDGL}},
		{"sparsify 0", traverseOpts(traverse.Options{SparsifyFraction: 0})},
		{"sparsify half", traverseOpts(traverse.Options{SparsifyFraction: 0.5})},
		{"sparsify 1", traverseOpts(traverse.Options{SparsifyFraction: 1})},
		{"coverage half", traverseOpts(traverse.Options{EdgeCoverage: 0.5})},
		{"drop redundant", traverseOpts(traverse.Options{DropEdges: 0.2, DropStrategy: traverse.DropRedundant})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opts.Validate(); err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
		})
	}
	for _, tc := range badOptions {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opts.Validate(); !errors.Is(err, ErrBadOptions) {
				t.Fatalf("Validate() = %v, want ErrBadOptions", err)
			}
		})
	}
}

// TestOptionsPrecisionValidate pins the exact spellings Precision
// accepts: near misses of f64 and f32 are rejected, not normalised.
func TestOptionsPrecisionValidate(t *testing.T) {
	for _, ok := range []string{"", PrecisionF64, PrecisionF32} {
		if err := (Options{Precision: ok}).Validate(); err != nil {
			t.Errorf("Precision %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"f16", "double", "F32", "fp32"} {
		err := (Options{Precision: bad}).Validate()
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("Precision %q: err = %v, want ErrBadOptions", bad, err)
		}
	}
}

// TestNewRejectsBadOptions pins that the constructor refuses to start —
// no workers, no silently different knobs — when handed any of the
// badOptions Validate rejects.
func TestNewRejectsBadOptions(t *testing.T) {
	cfg := models.Config{Dim: 16, Layers: 1, Heads: 2, NodeTypes: 4, EdgeTypes: 1, OutDim: 1, Seed: 3}
	model, err := train.NewModel("GT", cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := train.Checkpoint{Model: "GT", Config: cfg, Task: datasets.TaskRegression, Dataset: "ZINC"}

	for _, bad := range badOptions {
		s, err := New(model, meta, bad.opts)
		if !errors.Is(err, ErrBadOptions) {
			t.Fatalf("%s: New err = %v, want ErrBadOptions", bad.name, err)
		}
		if s != nil {
			s.Close()
			t.Fatalf("%s: New returned a live server alongside the error", bad.name)
		}
	}
}

// TestNewCapsComputePool pins the compute worker cap New sets,
// max(1, NumCPU − Workers + 1), so the request workers and their
// intra-op helpers together never oversubscribe the machine.
func TestNewCapsComputePool(t *testing.T) {
	cfg := models.Config{Dim: 16, Layers: 1, Heads: 2, NodeTypes: 4, EdgeTypes: 1, OutDim: 1, Seed: 3}
	model, err := train.NewModel("GT", cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := train.Checkpoint{Model: "GT", Config: cfg, Task: datasets.TaskRegression, Dataset: "ZINC"}
	defer compute.SetMaxThreads(compute.MaxThreads())

	n := runtime.NumCPU()
	for _, workers := range []int{1, n, n + 3} {
		s, err := New(model, meta, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if got, want := compute.MaxThreads(), max(1, n-workers+1); got != want {
			t.Errorf("Workers %d: compute budget %d, want %d", workers, got, want)
		}
	}
}
