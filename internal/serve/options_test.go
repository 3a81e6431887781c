package serve

import (
	"errors"
	"testing"

	"mega/internal/datasets"
	"mega/internal/models"
	"mega/internal/train"
)

// TestOptionsValidate is the regression net over the silent-fallback paths
// PR 5 documented: a ShardWorkers value that cannot divide the 8 path
// µchunks used to serve unsharded with only a fallback counter. It is now
// rejected at construction with ErrBadOptions.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"shard disabled", Options{ShardWorkers: 0}, true},
		{"shard single", Options{ShardWorkers: 1}, true},
		{"shard 2", Options{ShardWorkers: 2}, true},
		{"shard 4", Options{ShardWorkers: 4}, true},
		{"shard 8", Options{ShardWorkers: 8}, true},
		{"shard 3", Options{ShardWorkers: 3}, false},
		{"shard 5", Options{ShardWorkers: 5}, false},
		{"shard 6", Options{ShardWorkers: 6}, false},
		{"shard 7", Options{ShardWorkers: 7}, false},
		{"shard 16", Options{ShardWorkers: 16}, false},
		{"shard negative", Options{ShardWorkers: -2}, false},
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
		{ShardWorkers: 3},
		{ShardWorkers: 5},
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

	// The valid shard worker counts still construct (and still default the
	// vertex threshold).
	s, err := New(model, meta, Options{ShardWorkers: 4})
	if err != nil {
		t.Fatalf("New(ShardWorkers=4) = %v, want ok", err)
	}
	defer s.Close()
	if got := s.EffectiveOptions().ShardVertexThreshold; got != 256 {
		t.Fatalf("effective ShardVertexThreshold = %d, want defaulted 256", got)
	}
}
