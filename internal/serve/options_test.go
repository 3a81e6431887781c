package serve

import (
	"errors"
	"testing"

	"mega/internal/datasets"
	"mega/internal/models"
	"mega/internal/train"
	"mega/internal/traverse"
)

// TestOptionsValidate pins what Validate rejects rather than defaulting
// silently: a Precision that names neither arithmetic, and a
// sparsification fraction outside [0, 1].
func TestOptionsValidate(t *testing.T) {
	sparsify := func(f float64) Options {
		return Options{Mega: models.MegaOptions{Traverse: traverse.Options{SparsifyFraction: f}}}
	}
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"precision f64", Options{Precision: PrecisionF64}, true},
		{"precision f32", Options{Precision: PrecisionF32}, true},
		{"precision f16", Options{Precision: "f16"}, false},
		{"sparsify 0", sparsify(0), true},
		{"sparsify half", sparsify(0.5), true},
		{"sparsify 1", sparsify(1), true},
		{"sparsify negative", sparsify(-0.1), false},
		{"sparsify above 1", sparsify(1.5), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("Validate() = nil, want ErrBadOptions")
				}
				if !errors.Is(err, ErrBadOptions) {
					t.Fatalf("Validate() = %v, want ErrBadOptions", err)
				}
			}
		})
	}
}

// TestNewRejectsBadOptions pins that the constructor refuses to start —
// no workers, no silently different knobs — when handed
// options Validate rejects.
func TestNewRejectsBadOptions(t *testing.T) {
	cfg := models.Config{Dim: 16, Layers: 1, Heads: 2, NodeTypes: 4, EdgeTypes: 1, OutDim: 1, Seed: 3}
	model, err := train.NewModel("GT", cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := train.Checkpoint{Model: "GT", Config: cfg, Task: datasets.TaskRegression, Dataset: "ZINC"}

	for _, opts := range []Options{
		{Precision: "f16"},
		{Mega: models.MegaOptions{Traverse: traverse.Options{SparsifyFraction: 2}}},
	} {
		s, err := New(model, meta, opts)
		if !errors.Is(err, ErrBadOptions) {
			t.Fatalf("New(%+v) err = %v, want ErrBadOptions", opts, err)
		}
		if s != nil {
			s.Close()
			t.Fatalf("New(%+v) returned a live server alongside the error", opts)
		}
	}
}
