package load

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// BenchSchemaVersion gates BENCH_serve.json readers: bump on any
// backwards-incompatible change to BenchRecord. Version 2 dropped
// max_wait_ms from KnobConfig when the serve tier lost its batch-wait
// timer; version 1 records were measured with that wait and are not
// comparable.
const BenchSchemaVersion = 2

// MachineInfo records where a bench record was produced — capacity numbers
// are meaningless without it.
type MachineInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// CurrentMachine captures the running host.
func CurrentMachine() MachineInfo {
	return MachineInfo{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// BenchRecord is the standing BENCH_serve.json regression gate: the knob
// grid swept, each configuration's max sustainable QPS under the stated
// SLO, and the winner. Committed records pin the methodology (schema,
// seed, workload, SLO) so reruns are comparable; the QPS numbers
// themselves are machine-relative and carry their MachineInfo.
type BenchRecord struct {
	SchemaVersion int         `json:"schema_version"`
	GeneratedAt   string      `json:"generated_at"` // RFC 3339
	Machine       MachineInfo `json:"machine"`

	SLO           SLO        `json:"slo"`
	Seed          int64      `json:"seed"`
	ProbeDuration string     `json:"probe_duration"`
	Workload      MixOptions `json:"workload"`

	Configs []ConfigResult `json:"configs"`
	// Winner is the name of the config with the highest max sustainable
	// QPS ("" if nothing sustained any rate).
	Winner string `json:"winner"`
}

// NewBenchRecord assembles a record from a sweep's results.
func NewBenchRecord(generatedAt string, slo SLO, seed int64, probeDuration string, mix MixOptions, results []ConfigResult, winner int) BenchRecord {
	rec := BenchRecord{
		SchemaVersion: BenchSchemaVersion,
		GeneratedAt:   generatedAt,
		Machine:       CurrentMachine(),
		SLO:           slo,
		Seed:          seed,
		ProbeDuration: probeDuration,
		Workload:      mix.withDefaults(),
		Configs:       results,
	}
	if winner >= 0 && winner < len(results) {
		rec.Winner = results[winner].Config.Name
	}
	return rec
}

// Validate rejects records a regression gate must not trust: wrong schema,
// an empty sweep, or a named winner that is not in the sweep.
func (r BenchRecord) Validate() error {
	if r.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("load: bench record schema %d, this reader wants %d", r.SchemaVersion, BenchSchemaVersion)
	}
	if len(r.Configs) == 0 {
		return fmt.Errorf("load: bench record has no configs")
	}
	if r.Winner != "" {
		found := false
		for _, c := range r.Configs {
			if c.Config.Name == r.Winner {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("load: bench record winner %q not among its configs", r.Winner)
		}
	}
	return nil
}

// WriteFile writes the record as indented JSON (the file is committed and
// diffed, so stable formatting matters).
func (r BenchRecord) WriteFile(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadBenchRecord loads and validates a committed record.
func ReadBenchRecord(path string) (BenchRecord, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return BenchRecord{}, err
	}
	var rec BenchRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return BenchRecord{}, fmt.Errorf("load: parse %s: %w", path, err)
	}
	if err := rec.Validate(); err != nil {
		return BenchRecord{}, fmt.Errorf("load: %s: %w", path, err)
	}
	return rec, nil
}
