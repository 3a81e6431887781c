package train

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"mega/internal/datasets"
	"mega/internal/models"
)

func tinyConfig() models.Config {
	return models.Config{
		Dim: 16, Layers: 2, Heads: 2,
		NodeTypes: 8, EdgeTypes: 4, OutDim: 1, Seed: 7,
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, name := range []string{"GCN", "GT", "GAT"} {
		orig, err := NewModel(name, tinyConfig())
		if err != nil {
			t.Fatalf("NewModel(%s): %v", name, err)
		}
		meta := Checkpoint{Model: name, Config: tinyConfig(), Task: datasets.TaskRegression, Dataset: "ZINC"}
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, meta, orig); err != nil {
			t.Fatalf("save %s: %v", name, err)
		}
		gotMeta, loaded, err := LoadCheckpoint(&buf)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if gotMeta != meta {
			t.Errorf("%s: meta round-trip: got %+v want %+v", name, gotMeta, meta)
		}
		op, lp := orig.Params(), loaded.Params()
		if len(op) != len(lp) {
			t.Fatalf("%s: %d tensors loaded, want %d", name, len(lp), len(op))
		}
		for i := range op {
			for j, v := range op[i].Data {
				if lv := lp[i].Data[j]; lv != v {
					t.Fatalf("%s: tensor %d element %d: %v != %v", name, i, j, lv, v)
				}
			}
		}
	}
}

func TestCheckpointFileAndServingMatch(t *testing.T) {
	// A model trained for a couple of steps must survive the file round
	// trip with identical forward outputs.
	ds := datasets.ZINC(datasets.Config{TrainSize: 8, ValSize: 4, TestSize: 1, Seed: 3})
	res, err := Run(ds, Options{
		Model: "GT", Engine: models.EngineMega,
		Dim: 16, Layers: 1, Heads: 2, BatchSize: 4, Epochs: 1, Seed: 3,
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveCheckpointFile(path, res.Checkpoint(ds.Name), res.Model); err != nil {
		t.Fatalf("save file: %v", err)
	}
	meta, loaded, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatalf("load file: %v", err)
	}
	if meta.Model != "GT" || meta.Task != datasets.TaskRegression || meta.Dataset != "ZINC" {
		t.Errorf("meta = %+v", meta)
	}
	ctx, err := models.NewDGLContext(ds.Val[:2], nil, meta.Config.Dim)
	if err != nil {
		t.Fatalf("context: %v", err)
	}
	want := res.Model.Forward(ctx)
	got := loaded.Forward(ctx)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("forward mismatch at %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	if _, _, err := LoadCheckpoint(bytes.NewReader([]byte("not a checkpoint at all"))); !errors.Is(err, ErrCkptMagic) {
		t.Errorf("garbage magic: err = %v, want ErrCkptMagic", err)
	}
	// Valid magic, truncated header.
	if _, _, err := LoadCheckpoint(bytes.NewReader([]byte("MEGACKP1\xff\xff"))); !errors.Is(err, ErrCkptHeader) {
		t.Errorf("truncated header: err = %v, want ErrCkptHeader", err)
	}
}

func TestNewModelRejectsUnknown(t *testing.T) {
	if _, err := NewModel("RNN", tinyConfig()); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("err = %v, want ErrUnknownModel", err)
	}
	// One attention implementation exists; naming another is a
	// construction error for every model, never a silent fallback — from
	// a caller's Config and from a checkpoint header alike.
	for _, name := range []string{"GCN", "GT", "GAT"} {
		for attention, ok := range map[string]bool{"": true, "fused": true, "staged": false, "Fused": false} {
			cfg := tinyConfig()
			cfg.Attention = attention
			if _, err := NewModel(name, cfg); (err == nil) != ok {
				t.Errorf("NewModel(%s, Attention=%q): err = %v, want ok=%v", name, attention, err, ok)
			}
		}
	}
	good, err := NewModel("GT", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	meta := Checkpoint{Model: "GT", Config: tinyConfig(), Task: datasets.TaskRegression, Dataset: "ZINC"}
	meta.Config.Attention = "staged"
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, meta, good); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(&buf); err == nil {
		t.Error("checkpoint naming the staged attention loaded without error")
	}
}
