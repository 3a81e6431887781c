package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"mega/internal/load"
)

// TestRunFixedSchedule smokes the CLI end to end against the ephemeral
// in-process server: a short run must finish, print a clean
// reconciliation, and exit nil.
func TestRunFixedSchedule(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-rate", "40", "-duration", "1s", "-seed", "7",
		"-update-frac", "0.1", "-max-batch", "8",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "reconciliation: clean") {
		t.Fatalf("output missing clean reconciliation:\n%s", out.String())
	}
}

// TestRunJSONReport pins the -json contract: stdout is one decodable
// load.Report.
func TestRunJSONReport(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rate", "30", "-duration", "500ms", "-json"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep load.Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("decode -json report: %v\noutput:\n%s", err, out.String())
	}
	if rep.Total.Sent == 0 {
		t.Fatal("report shows zero requests sent")
	}
	if !rep.Reconciliation.Clean {
		t.Fatalf("reconciliation not clean: %v", rep.Reconciliation.Mismatches)
	}
}

// TestRunAutotuneSmoke runs a minimal one-config capacity search and
// checks the bench record lands on disk, validates, and carries probes.
func TestRunAutotuneSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity search needs multi-second probes")
	}
	outPath := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var out strings.Builder
	err := run([]string{
		"-autotune", "-slo-p99", "50ms", "-probe-duration", "400ms",
		"-start-rate", "15", "-tolerance", "0.3",
		"-grid", "8/1/0", "-out", outPath,
	}, &out)
	if err != nil {
		t.Fatalf("run -autotune: %v\noutput:\n%s", err, out.String())
	}
	rec, err := load.ReadBenchRecord(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Configs) != 1 {
		t.Fatalf("record has %d configs, want 1", len(rec.Configs))
	}
	if len(rec.Configs[0].Capacity.Probes) == 0 {
		t.Fatal("capacity search recorded no probes")
	}
	if rec.Workload.NodeTypes < 1 {
		t.Fatalf("record workload vocabulary unresolved: %+v", rec.Workload)
	}
}

// TestRunFlagValidation pins the mutually exclusive mode checks.
func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-addr", "localhost:1", "-checkpoint", "x.ckpt"},
		{"-addr", "localhost:1", "-autotune"},
		{"-addr", "localhost:1", "-faults", "chaos"},
		{"-faults", "bogus"},
		{"-phases", "not-a-spec"},
		{"-autotune", "-grid", "16/1"},
		{"-max-wait", "2ms"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) = nil, want error", args)
		}
	}
}

// TestGridRejectsWaitField: the grid lost its MAXWAIT field with the
// server's batch-wait timer; an entry in the old four-field format is a
// parse error that names the new one instead of being reinterpreted.
func TestGridRejectsWaitField(t *testing.T) {
	_, err := parseGrid("16/2ms/1/0")
	if err == nil || !strings.Contains(err.Error(), "MAXBATCH/WORKERS/SHARD") {
		t.Fatalf("parseGrid(four fields) = %v, want an error naming MAXBATCH/WORKERS/SHARD", err)
	}
	grid, err := parseGrid("16/2/4")
	if err != nil {
		t.Fatal(err)
	}
	want := load.KnobConfig{Name: "batch16-w2-shard4", MaxBatch: 16, Workers: 2, ShardWorkers: 4}
	if len(grid) != 1 || grid[0] != want {
		t.Fatalf("parseGrid(16/2/4) = %+v, want %+v", grid, want)
	}
}
