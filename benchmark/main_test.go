package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRankRuleAndRefusal(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Nearest rank: the ⌈q·n⌉-th smallest.
	for _, c := range []struct{ q, want float64 }{{0.50, 500}, {0.95, 950}, {0.99, 990}} {
		got, err := percentile(xs, c.q)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..1000 = %v, %v; want %v", c.q*100, got, err, c.want)
		}
	}
	// 999 samples leave only 9 beyond p99.
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples was accepted; 9 samples lie beyond it")
	}
	if _, err := percentile(xs[:200], 0.95); err != nil {
		t.Errorf("p95 of 200 samples refused: %v", err)
	}
	if _, err := percentile(xs[:199], 0.95); err == nil {
		t.Error("p95 of 199 samples was accepted")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartilesOf([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q.Q1 != 2.75 || q.Median != 5.5 || q.Q3 != 8.25 || q.Spread != 1 {
		t.Errorf("quartiles of 1..10 = %+v, want 2.75 5.5 8.25 spread 1", q)
	}
}

// A generator that stalls sends the next requests late. Timed from
// dispatch they look instant; timed from when they were due, the stall is
// in their latency — which is what a user who sent them on time would see.
func TestGeneratorStallShowsInDueTimeLatency(t *testing.T) {
	const stall = 100 * time.Millisecond
	var arrivals []arrival
	for i := 0; i < 30; i++ {
		arrivals = append(arrivals, arrival{at: time.Duration(i) * 5 * time.Millisecond, idx: i})
	}
	var sleeps atomic.Int32
	p := pacer{sleep: func(d time.Duration) {
		if sleeps.Add(1) == 10 {
			d += stall
		}
		time.Sleep(d)
	}}
	var fromDispatch atomic.Int64 // worst latency a dispatch-timed runner would record
	samples, lag := p.openLoop(arrivals, func(opKind, int) (int, []byte) {
		t0 := time.Now()
		defer func() {
			if d := int64(time.Since(t0)); d > fromDispatch.Load() {
				fromDispatch.Store(d)
			}
		}()
		return 200, nil
	})
	worst := time.Duration(0)
	for _, s := range samples {
		worst = max(worst, s.latency)
	}
	if worst < stall*8/10 || lag < stall*8/10 {
		t.Errorf("a %v stall gave worst due-time latency %v and pacer lag %v; both should show it", stall, worst, lag)
	}
	if d := time.Duration(fromDispatch.Load()); d > stall/10 {
		t.Errorf("dispatch-timed latency %v: the instant handler should hide the stall from it", d)
	}
}

func TestHitAndColdShareOneSizeDistribution(t *testing.T) {
	meanNodes := func(bodies [][]byte) float64 {
		sum := 0.0
		for _, b := range bodies {
			var req struct {
				NumNodes int `json:"num_nodes"`
			}
			if err := json.Unmarshal(b, &req); err != nil {
				t.Fatal(err)
			}
			sum += float64(req.NumNodes)
		}
		return sum / float64(len(bodies))
	}
	rng := rand.New(rand.NewSource(7))
	pool := poolBodies(rng)
	if len(pool) != poolSize {
		t.Fatalf("pool holds %d graphs, want %d", len(pool), poolSize)
	}
	want := 0.0
	for _, sc := range sizeClasses {
		want += float64(sc.nodes*sc.pool) / poolSize
	}
	hit, cold := meanNodes(hitBodies(rng, pool, 4000)), meanNodes(coldBodies(rng, 4000))
	for name, got := range map[string]float64{"hit": hit, "cold": cold} {
		if math.Abs(got-want)/want > 0.04 {
			t.Errorf("%s population: mean %.1f nodes, want %.1f within 4 %%", name, got, want)
		}
	}
}

func TestBareTraceFlag(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"-trace", "-seed", "2"}, []string{"-trace=1", "-seed", "2"}},
		{[]string{"--workload", "w", "--trace", "0"}, []string{"--workload", "w", "--trace", "0"}},
		{[]string{"--trace", "1"}, []string{"--trace", "1"}},
	} {
		if got := normaliseArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normaliseArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// BENCHMARK.json and the tables of main.go are one vocabulary.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program has %v", names, workloads)
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program has %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer %v, program has %v", layers, perLayer)
	}
}

// The -quick smoke: every workload, untraced and traced, passes its own
// correctness checks and prints a result that parses back.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads for ~2 s each, twice")
	}
	for _, name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 5, seconds: 2, trace: trace, quick: true, outDir: t.TempDir()}
			r, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", name, trace, r.Correct, r.Failed, r.Attempted, r.failures)
			}
			line, err := json.Marshal(r.result)
			if err != nil {
				t.Fatal(err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("%s: own output does not parse: %v", name, err)
			}
			var got, want []string
			for k := range back.Metrics {
				got = append(got, k)
			}
			for _, d := range metricDefs(trace) {
				want = append(want, d.name)
				if m := back.Metrics[d.name]; !trace && !(m.Value > 0) {
					t.Errorf("%s: %s = %v, an end-to-end metric is never 0", name, d.name, m.Value)
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v reports %v, want exactly %v", name, trace, got, want)
			}
			if trace {
				if _, err := os.Stat(cfg.outDir + "/trace-" + name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
		}
	}
}
