package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mega/internal/datasets"
	"mega/internal/models"
	"mega/internal/serve"
	"mega/internal/train"
)

// writeCheckpoint trains a tiny model and saves it, returning the path.
func writeCheckpoint(t *testing.T) string {
	t.Helper()
	ds := datasets.ZINC(datasets.Config{TrainSize: 8, ValSize: 4, TestSize: 1, Seed: 2})
	res, err := train.Run(ds, train.Options{
		Model: "GT", Engine: models.EngineMega,
		Dim: 16, Layers: 1, Heads: 2, BatchSize: 4, Epochs: 1, Seed: 2,
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := train.SaveCheckpointFile(path, res.Checkpoint(ds.Name), res.Model); err != nil {
		t.Fatalf("save: %v", err)
	}
	return path
}

func TestServeEndToEnd(t *testing.T) {
	path := writeCheckpoint(t)
	ready := make(chan string, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errc <- run([]string{
			"-checkpoint", path, "-addr", "127.0.0.1:0",
			"-max-batch", "4", "-log-every", "0",
		}, &out, ready, stop)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	body := []byte(`{"num_nodes":4,"edges":[[0,1],[1,2],[2,3],[3,0]],"node_feats":[0,1,2,3],"edge_feats":[0,1,0,1]}`)
	post := func() serve.Prediction {
		t.Helper()
		resp, err := http.Post("http://"+addr+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		var pred serve.Prediction
		if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return pred
	}
	first := post()
	second := post()
	if len(first.Output) != 1 {
		t.Errorf("regression output width = %d", len(first.Output))
	}
	if first.CacheHit || !second.CacheHit {
		t.Errorf("cache hits: first %v second %v, want false/true", first.CacheHit, second.CacheHit)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	resp.Body.Close()
	if snap.Cache.Hits < 1 || snap.Requests < 2 {
		t.Errorf("metrics: %+v", snap)
	}

	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never shut down")
	}
	if !strings.Contains(out.String(), "listening on") {
		t.Errorf("startup log missing: %q", out.String())
	}
}

func TestRunRequiresCheckpoint(t *testing.T) {
	if err := run(nil, io.Discard, nil, nil); err == nil {
		t.Error("missing -checkpoint should error")
	}
}

func TestRunRejectsUnknownEngine(t *testing.T) {
	err := run([]string{"-checkpoint", "x.ckpt", "-engine", "cuda"}, io.Discard, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("err = %v", err)
	}
}

// TestRunRejectsBadSparsify: options serve.New rejects stop megaserve at
// start — a keep fraction outside [0, 1], which a negative value once
// slipped past as "off", and f32 on the dgl engine, which has no float32
// path.
func TestRunRejectsBadSparsify(t *testing.T) {
	path := writeCheckpoint(t)
	for _, args := range [][]string{
		{"-sparsify", "-0.5"},
		{"-sparsify", "1.5"},
		{"-engine", "dgl", "-precision", "f32"},
	} {
		err := run(append([]string{"-checkpoint", path, "-log-every", "0"}, args...), io.Discard, nil, nil)
		if !errors.Is(err, serve.ErrBadOptions) {
			t.Errorf("%v: err = %v, want serve.ErrBadOptions", args, err)
		}
	}
}

// TestRunRejectsMaxWait: the batch-wait knob is gone, and passing it is an
// error rather than a silently ignored flag.
func TestRunRejectsMaxWait(t *testing.T) {
	err := run([]string{"-checkpoint", "x.ckpt", "-max-wait", "2ms"}, io.Discard, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "max-wait") {
		t.Errorf("err = %v, want the unknown -max-wait flag named", err)
	}
}

func TestRunRejectsMissingFile(t *testing.T) {
	err := run([]string{"-checkpoint", filepath.Join(t.TempDir(), "nope.ckpt")}, io.Discard, nil, nil)
	if err == nil {
		t.Error("missing checkpoint file should error")
	}
}
