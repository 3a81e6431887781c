package load

import (
	"fmt"
	"math"
)

// SLO is the pass/fail criterion for one probe: client-observed p99 at or
// under P99Ms, and no more than MaxErrorFraction of predict requests
// failing (shed, deadline, or error — an overloaded server that sheds its
// way to a good p99 is not meeting capacity).
type SLO struct {
	P99Ms            float64 `json:"p99_ms"`
	MaxErrorFraction float64 `json:"max_error_fraction"`
}

// ProbeResult is what one fixed-rate probe observed.
type ProbeResult struct {
	AchievedQPS   float64 `json:"achieved_qps"`
	P99Ms         float64 `json:"p99_ms"`
	ErrorFraction float64 `json:"error_fraction"`
}

// Pass reports whether the probe met the SLO.
func (r ProbeResult) Pass(slo SLO) bool {
	return r.P99Ms <= slo.P99Ms && r.ErrorFraction <= slo.MaxErrorFraction
}

// ProbeFunc runs the system at one offered rate for a fixed window and
// reports what the client observed. The autotuner is pure search logic
// over this function, so tests drive it with synthetic latency curves and
// the CLI drives it with real measured runs — same code path.
type ProbeFunc func(rate float64) (ProbeResult, error)

// ProbePoint records one step of the search, pass or fail, for the bench
// record's audit trail.
type ProbePoint struct {
	Rate   float64     `json:"rate"`
	Result ProbeResult `json:"result"`
	Pass   bool        `json:"pass"`
}

// SearchOptions bounds the capacity search.
type SearchOptions struct {
	// StartRate is the first offered rate probed (default 10 QPS).
	StartRate float64
	// MaxRate caps the bracketing phase (default 1e6 QPS). Hitting it
	// without a failure marks the result Saturated: the true capacity is at
	// least MaxRate, the generator or the cap ran out first.
	MaxRate float64
	// Tolerance is the relative bracket width at which bisection stops
	// (default 0.05: capacity resolved to within 5%).
	Tolerance float64
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.StartRate <= 0 {
		o.StartRate = 10
	}
	if o.MaxRate <= 0 {
		o.MaxRate = 1e6
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 0.05
	}
	return o
}

// CapacityResult is the outcome of one capacity search.
type CapacityResult struct {
	// MaxQPS is the highest offered rate that met the SLO (0 if even
	// StartRate failed).
	MaxQPS float64 `json:"max_qps"`
	// AtCapacity is the probe observation at MaxQPS.
	AtCapacity ProbeResult `json:"at_capacity"`
	// Saturated means the search never found a failing rate below MaxRate;
	// MaxQPS is a lower bound, not a knee.
	Saturated bool `json:"saturated"`
	// Probes is every rate tried, in order.
	Probes []ProbePoint `json:"probes"`
}

// SearchCapacity finds the maximum sustainable offered rate meeting the
// SLO with a bracketed search: double the rate from StartRate until a
// probe fails (bracketing the knee between the last pass and the first
// fail), then bisect the bracket until its relative width is inside
// Tolerance. Monotone latency-vs-rate is assumed on the bracket — the
// standard shape for a queueing system — so each probe halves the
// uncertainty.
func SearchCapacity(probe ProbeFunc, slo SLO, opts SearchOptions) (CapacityResult, error) {
	opts = opts.withDefaults()
	if slo.P99Ms <= 0 {
		return CapacityResult{}, fmt.Errorf("load: SLO p99 %v must be > 0", slo.P99Ms)
	}
	res := CapacityResult{}
	try := func(rate float64) (ProbeResult, bool, error) {
		r, err := probe(rate)
		if err != nil {
			return ProbeResult{}, false, fmt.Errorf("load: probe at %.6g QPS: %w", rate, err)
		}
		pass := r.Pass(slo)
		res.Probes = append(res.Probes, ProbePoint{Rate: rate, Result: r, Pass: pass})
		return r, pass, nil
	}

	// Bracket: double until a probe fails or the cap is hit.
	lo, hi := 0.0, 0.0 // lo = best passing rate, hi = lowest failing rate
	var loRes ProbeResult
	rate := opts.StartRate
	for {
		r, pass, err := try(rate)
		if err != nil {
			return res, err
		}
		if !pass {
			hi = rate
			break
		}
		lo, loRes = rate, r
		if rate >= opts.MaxRate {
			res.MaxQPS, res.AtCapacity, res.Saturated = lo, loRes, true
			return res, nil
		}
		rate = math.Min(rate*2, opts.MaxRate)
	}
	if lo == 0 {
		// Even the starting rate missed the SLO: no sustainable capacity in
		// the searched range.
		return res, nil
	}

	// Bisect [lo, hi) until the bracket is narrow relative to its midpoint.
	for (hi-lo)/hi > opts.Tolerance {
		mid := (lo + hi) / 2
		r, pass, err := try(mid)
		if err != nil {
			return res, err
		}
		if pass {
			lo, loRes = mid, r
		} else {
			hi = mid
		}
	}
	res.MaxQPS, res.AtCapacity = lo, loRes
	return res, nil
}

// KnobConfig is one point of the serve-options sweep grid.
type KnobConfig struct {
	Name         string `json:"name"`
	MaxBatch     int    `json:"max_batch"`
	Workers      int    `json:"workers"`
	ShardWorkers int    `json:"shard_workers"`
}

// ConfigResult pairs a knob configuration with its measured capacity.
type ConfigResult struct {
	Config   KnobConfig     `json:"config"`
	Capacity CapacityResult `json:"capacity"`
}

// ProbeFactory builds a ProbeFunc for one knob configuration (typically:
// construct a fresh server with those options, return a closure that runs
// a fixed-duration measured window at the given rate). The returned
// cleanup tears the server down; it may be nil.
type ProbeFactory func(cfg KnobConfig) (ProbeFunc, func(), error)

// Sweep runs the capacity search once per knob configuration and returns
// results in grid order plus the index of the winner (highest MaxQPS; -1
// if no config sustained any rate). Configurations run sequentially — the
// probes saturate the machine by design, so parallel sweeping would
// measure contention between configs, not capacity.
func Sweep(grid []KnobConfig, factory ProbeFactory, slo SLO, opts SearchOptions, progress func(string)) ([]ConfigResult, int, error) {
	if progress == nil {
		progress = func(string) {}
	}
	results := make([]ConfigResult, 0, len(grid))
	winner := -1
	for i, cfg := range grid {
		probe, cleanup, err := factory(cfg)
		if err != nil {
			return results, winner, fmt.Errorf("load: config %q: %w", cfg.Name, err)
		}
		cap, err := SearchCapacity(probe, slo, opts)
		if cleanup != nil {
			cleanup()
		}
		if err != nil {
			return results, winner, fmt.Errorf("load: config %q: %w", cfg.Name, err)
		}
		results = append(results, ConfigResult{Config: cfg, Capacity: cap})
		if cap.MaxQPS > 0 && (winner == -1 || cap.MaxQPS > results[winner].Capacity.MaxQPS) {
			winner = i
		}
		progress(fmt.Sprintf("%s: max sustainable %.1f QPS (p99 %.2fms at capacity, %d probes)",
			cfg.Name, cap.MaxQPS, cap.AtCapacity.P99Ms, len(cap.Probes)))
	}
	return results, winner, nil
}
