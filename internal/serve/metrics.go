package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mega/internal/tensor"
)

// latencyBounds are the histogram bucket upper bounds, exponential from
// 50µs to 5s — wide enough to cover a cache-hit fast path and a cold
// traversal of a large graph in one scale.
var latencyBounds = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2500 * time.Millisecond, 5 * time.Second,
}

// numBuckets counts the explicit bounds plus the final +Inf bucket.
const numBuckets = 17

// histogram is a fixed-bucket latency histogram; the final implicit bucket
// is +Inf.
type histogram struct {
	mu     sync.Mutex
	counts [numBuckets]uint64
	count  uint64
	sum    time.Duration
	max    time.Duration
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	i := 0
	for i < len(latencyBounds) && d > latencyBounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Bucket is one histogram bar: the count of observations at most Le.
// The final bucket is unbounded; it serializes with "le_ms": "+Inf"
// rather than a numeric sentinel a consumer could mistake for 0 ms.
type Bucket struct {
	LeMs  float64 `json:"le_ms"` // upper bound in ms; unused when Inf is set
	Inf   bool    `json:"-"`
	Count uint64  `json:"count"`
}

// MarshalJSON emits the overflow bucket's bound as the string "+Inf"
// (JSON has no infinity literal) and every bounded bucket as a number.
func (b Bucket) MarshalJSON() ([]byte, error) {
	if b.Inf {
		return json.Marshal(struct {
			LeMs  string `json:"le_ms"`
			Count uint64 `json:"count"`
		}{LeMs: "+Inf", Count: b.Count})
	}
	type bounded Bucket // drop the method to avoid recursion
	return json.Marshal(bounded(b))
}

// UnmarshalJSON accepts both forms MarshalJSON produces — a numeric bound
// or the string "+Inf" — so a Snapshot round-trips through JSON (clients
// of /metrics decode into the same types the server encodes from).
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LeMs  json.RawMessage `json:"le_ms"`
		Count uint64          `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*b = Bucket{Count: raw.Count}
	if len(raw.LeMs) == 0 {
		return nil
	}
	if raw.LeMs[0] == '"' {
		var s string
		if err := json.Unmarshal(raw.LeMs, &s); err != nil {
			return err
		}
		if s != "+Inf" {
			return fmt.Errorf("serve: bucket bound %q (want a number or \"+Inf\")", s)
		}
		b.Inf = true
		return nil
	}
	return json.Unmarshal(raw.LeMs, &b.LeMs)
}

// HistogramStats is a JSON-friendly histogram snapshot with approximate
// quantiles (each quantile reports its bucket's upper bound).
type HistogramStats struct {
	Count   uint64   `json:"count"`
	MeanMs  float64  `json:"mean_ms"`
	MaxMs   float64  `json:"max_ms"`
	P50Ms   float64  `json:"p50_ms"`
	P90Ms   float64  `json:"p90_ms"`
	P99Ms   float64  `json:"p99_ms"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// snapshot freezes the histogram, optionally including per-bucket counts.
func (h *histogram) snapshot(withBuckets bool) HistogramStats {
	h.mu.Lock()
	counts := h.counts
	count, sum, max := h.count, h.sum, h.max
	h.mu.Unlock()

	s := HistogramStats{Count: count, MaxMs: ms(max)}
	if count == 0 {
		return s
	}
	s.MeanMs = ms(sum) / float64(count)
	quantile := func(q float64) float64 {
		// Ceiling rank: the q-quantile is the smallest observation with at
		// least ⌈q·n⌉ observations at or below it. Truncation would collapse
		// distinct quantiles at small counts (at n=10, p90 and p99 would both
		// resolve to rank 9) and systematically under-report the tail.
		target := uint64(math.Ceil(q * float64(count)))
		if target == 0 {
			target = 1
		}
		cum := uint64(0)
		for i, c := range counts {
			cum += c
			if cum >= target {
				if i < len(latencyBounds) {
					return ms(latencyBounds[i])
				}
				return ms(max) // +Inf bucket: report the observed max
			}
		}
		return ms(max)
	}
	s.P50Ms, s.P90Ms, s.P99Ms = quantile(0.50), quantile(0.90), quantile(0.99)
	if withBuckets {
		for i, c := range counts {
			b := Bucket{Count: c}
			if i < len(latencyBounds) {
				b.LeMs = ms(latencyBounds[i])
			} else {
				b.Inf = true
			}
			s.Buckets = append(s.Buckets, b)
		}
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Metrics aggregates the service's counters and per-stage latency
// histograms: queue (enqueue to batch start), preprocess (traversal + band
// on cache miss), forward (context build + model pass per batch), and
// total (request arrival to response).
type Metrics struct {
	start time.Time

	requests atomic.Uint64
	errors   atomic.Uint64

	// The batch counters move together (MeanBatchSize divides batched by
	// batches; MaxBatchSize bounds it), so they update and snapshot under
	// one mutex — independent atomics let Snapshot observe batched from a
	// later batch than batches, reporting a mean above the true maximum.
	batchMu  sync.Mutex
	batches  uint64
	batched  uint64 // graphs summed over batches
	maxBatch uint64

	// Failure-domain counters (PR 4): each names one way a request can
	// deviate from the happy path, so load tests and the chaos harness can
	// assert that every deviation is accounted for.
	shed                 atomic.Uint64 // admission queue full → ErrOverloaded
	deadlineExceeded     atomic.Uint64 // caller deadline fired before the answer
	canceled             atomic.Uint64 // caller context canceled
	degraded             atomic.Uint64 // served by the fallback engine
	prepareFailures      atomic.Uint64 // MEGA preprocessing attempts that failed
	breakerTransitions   atomic.Uint64 // every breaker state change
	breakerOpens         atomic.Uint64 // transitions into open specifically
	workerRestarts       atomic.Uint64 // panicked workers replaced
	checkpointRecoveries atomic.Uint64 // corrupt checkpoints quarantined at load

	// Mutation-subsystem counters: POST /update traffic. Every batch is
	// one rebuild of the successor graph, timed by the repair histogram.
	updates          atomic.Uint64 // /update requests
	updateErrors     atomic.Uint64 // /update requests that failed
	mutationsApplied atomic.Uint64 // individual edge mutations committed

	queue      histogram
	preprocess histogram
	forward    histogram
	total      histogram
	update     histogram // whole /update request, including base resolution
	repair     histogram // dynamic.Apply alone: validation and one rebuild
}

// NewMetrics creates a metrics registry anchored at now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

func (m *Metrics) observeBatch(size int, forward time.Duration) {
	m.batchMu.Lock()
	m.batches++
	m.batched += uint64(size)
	if uint64(size) > m.maxBatch {
		m.maxBatch = uint64(size)
	}
	m.batchMu.Unlock()
	m.forward.observe(forward)
}

// Snapshot is the full JSON document served on /metrics.
type Snapshot struct {
	UptimeSec     float64 `json:"uptime_sec"`
	Requests      uint64  `json:"requests"`
	Errors        uint64  `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`

	Batches       uint64  `json:"batches"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	MaxBatchSize  uint64  `json:"max_batch_size"`

	// Failure-domain counters and state (see Metrics).
	Shed                 uint64 `json:"shed"`
	DeadlineExceeded     uint64 `json:"deadline_exceeded"`
	Canceled             uint64 `json:"canceled"`
	Degraded             uint64 `json:"degraded"`
	PrepareFailures      uint64 `json:"prepare_failures"`
	BreakerTransitions   uint64 `json:"breaker_transitions"`
	BreakerOpens         uint64 `json:"breaker_opens"`
	WorkerRestarts       uint64 `json:"worker_restarts"`
	CheckpointRecoveries uint64 `json:"checkpoint_recoveries"`
	Breaker              string `json:"breaker"`
	QueueDepth           int    `json:"queue_depth"`
	QueueCapacity        int    `json:"queue_capacity"`
	Workers              int    `json:"workers"`

	// Mutation-subsystem counters (zero unless /update is exercised).
	Updates          uint64 `json:"updates"`
	UpdateErrors     uint64 `json:"update_errors"`
	MutationsApplied uint64 `json:"mutations_applied"`

	Cache CacheStats `json:"cache"`

	// Arena reports the shared scratch arena's occupancy: borrows, bucket
	// hit/miss rates, and peak resident bytes per precision. A growing
	// miss rate or peak means steady-state serving is still allocating.
	Arena tensor.ArenaStats `json:"arena"`

	// Precision is the serving arithmetic ("f64", or "f32" when the
	// float32 fast path is active).
	Precision string `json:"precision"`

	QueueLatency      HistogramStats `json:"queue_latency"`
	PreprocessLatency HistogramStats `json:"preprocess_latency"`
	ForwardLatency    HistogramStats `json:"forward_latency"`
	TotalLatency      HistogramStats `json:"total_latency"`
	UpdateLatency     HistogramStats `json:"update_latency"`
	RepairLatency     HistogramStats `json:"repair_latency"`
}

// Snapshot freezes every counter. withBuckets includes raw histogram
// buckets (the /metrics endpoint does; log lines don't).
func (m *Metrics) Snapshot(cache CacheStats, withBuckets bool) Snapshot {
	uptime := time.Since(m.start).Seconds()
	// Load errors before requests: errors never exceeds requests at any
	// instant, and requests only grows, so this order keeps the snapshot's
	// invariant errors ≤ requests even while both counters advance.
	errors := m.errors.Load()
	requests := m.requests.Load()
	m.batchMu.Lock()
	batches, batched, maxBatch := m.batches, m.batched, m.maxBatch
	m.batchMu.Unlock()
	s := Snapshot{
		UptimeSec:    uptime,
		Requests:     requests,
		Errors:       errors,
		Batches:      batches,
		MaxBatchSize: maxBatch,
		Cache:        cache,

		Shed:                 m.shed.Load(),
		DeadlineExceeded:     m.deadlineExceeded.Load(),
		Canceled:             m.canceled.Load(),
		Degraded:             m.degraded.Load(),
		PrepareFailures:      m.prepareFailures.Load(),
		BreakerTransitions:   m.breakerTransitions.Load(),
		BreakerOpens:         m.breakerOpens.Load(),
		WorkerRestarts:       m.workerRestarts.Load(),
		CheckpointRecoveries: m.checkpointRecoveries.Load(),

		Updates:          m.updates.Load(),
		UpdateErrors:     m.updateErrors.Load(),
		MutationsApplied: m.mutationsApplied.Load(),

		QueueLatency:      m.queue.snapshot(withBuckets),
		PreprocessLatency: m.preprocess.snapshot(withBuckets),
		ForwardLatency:    m.forward.snapshot(withBuckets),
		TotalLatency:      m.total.snapshot(withBuckets),
		UpdateLatency:     m.update.snapshot(withBuckets),
		RepairLatency:     m.repair.snapshot(withBuckets),
	}
	if uptime > 0 {
		s.ThroughputRPS = float64(s.Requests) / uptime
	}
	if batches > 0 {
		s.MeanBatchSize = float64(batched) / float64(batches)
	}
	return s
}
