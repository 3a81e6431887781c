// Package gpusim is a trace-driven GPU memory-hierarchy simulator that
// stands in for the paper's GTX 1080 + nvprof measurement stack (see
// DESIGN.md, substitutions). The attention engines feed it their actual
// memory-access patterns — per-row gathers and scatters for the DGL-style
// baseline, sequential banded sweeps for MEGA — and it derives the metrics
// the paper profiles: per-kernel cycles, SM efficiency, memory-stall
// percentage, global-load transaction counts, and call counts (Figs 1b, 4,
// 5, 6, 9, 10).
//
// The cost model per kernel launch:
//
//	time  = max(compute, memPipeline) + exposedStall
//
// where compute is issue cycles for useful math, memPipeline is the
// bandwidth-bound cost of the touched transactions, and exposedStall is
// per-access latency (global or L2) divided by the kernel's memory-level
// parallelism (MLP). Streaming kernels (sgemm, elementwise, banded
// attention) enjoy high MLP — hardware prefetching and abundant independent
// loads hide latency. Index-dependent kernels (gather/scatter/sort) have
// low MLP: the address is not known until the index arrives, which is
// exactly the "un-coalesced memory access" bottleneck of §II-B2.
//
// Whether an access hits in L2 is decided by an actual set-associative LRU
// cache simulation over the engine-provided addresses, so locality effects
// (e.g. MEGA's reordering making neighbour rows adjacent) emerge rather
// than being asserted.
package gpusim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Kind classifies kernels by their access behaviour; it selects the MLP
// model and groups kernels for reporting.
type Kind int

// Kernel behaviour classes.
const (
	// KindSgemm is dense matrix multiply (cuBLAS sgemm): compute bound,
	// streaming memory.
	KindSgemm Kind = iota + 1
	// KindGather is index-based row gathering (the dgl aggregation
	// kernels): low MLP, index-dependent addressing.
	KindGather
	// KindScatter is index-based row scattering with atomics.
	KindScatter
	// KindSort is cub radix sort over index keys.
	KindSort
	// KindElementwise is streaming per-element math (activations, norms).
	KindElementwise
	// KindMemcpy is host<->device or device<->device copy.
	KindMemcpy
	// KindBand is MEGA's banded diagonal attention sweep: sequential
	// shifted streams.
	KindBand
	// KindSync is MEGA's duplicate-position synchronisation reduction.
	KindSync
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSgemm:
		return "sgemm"
	case KindGather:
		return "gather"
	case KindScatter:
		return "scatter"
	case KindSort:
		return "sort"
	case KindElementwise:
		return "elementwise"
	case KindMemcpy:
		return "memcpy"
	case KindBand:
		return "band"
	case KindSync:
		return "sync"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// mlp returns the modelled memory-level parallelism for the kind: how many
// outstanding accesses hide each other's latency.
func (k Kind) mlp() float64 {
	switch k {
	case KindSgemm, KindElementwise, KindMemcpy, KindBand:
		// Streaming: hardware prefetch plus >1000 warps in flight hide
		// essentially all latency; the stream is bandwidth bound.
		return 2048
	case KindSort:
		return 64 // multi-pass with partial regularity
	case KindSync:
		return 32 // few indexed rows per group, batched
	default:
		return 8 // gather/scatter: index-dependent addresses
	}
}

// Config describes the simulated device. Defaults model a GeForce GTX 1080
// (§IV-A): 2 MiB L2, 320 GB/s global memory, 1.6 GHz SM clock, 20 SMs,
// 128 B memory transactions.
type Config struct {
	ClockHz          float64
	L2Bytes          int64
	L2Ways           int
	LineBytes        int64
	GlobalLatency    float64 // cycles per global-memory access
	L2Latency        float64 // cycles per L2 hit
	BytesPerCycle    float64 // DRAM bandwidth in bytes per SM-clock cycle
	FlopsPerCycle    float64 // device-wide fp32 throughput per cycle
	LaunchOverhead   float64 // cycles per kernel launch
	WarpSize         int
	TransactionBytes int64
}

// GTX1080 returns the default device configuration.
func GTX1080() Config {
	return Config{
		ClockHz:          1.6e9,
		L2Bytes:          2 << 20,
		L2Ways:           16,
		LineBytes:        128,
		GlobalLatency:    400,
		L2Latency:        200,
		BytesPerCycle:    200,  // 320 GB/s at 1.6 GHz
		FlopsPerCycle:    5000, // ~8 TFLOP/s fp32
		LaunchOverhead:   4000,
		WarpSize:         32,
		TransactionBytes: 128,
	}
}

// A100Class returns a modern-datacenter-GPU configuration (40 MiB L2,
// ~1.5 TB/s HBM, ~19 TFLOP/s fp32). Useful for sensitivity analysis: MEGA's
// advantage shrinks as caches grow and latency hiding improves, but the
// irregular kernels remain latency-bound — the trend the paper's conclusion
// points at ("the ongoing trend of expanding model sizes").
func A100Class() Config {
	return Config{
		ClockHz:          1.4e9,
		L2Bytes:          40 << 20,
		L2Ways:           16,
		LineBytes:        128,
		GlobalLatency:    350,
		L2Latency:        180,
		BytesPerCycle:    1100,  // ~1.5 TB/s at 1.4 GHz
		FlopsPerCycle:    14000, // ~19 TFLOP/s fp32
		LaunchOverhead:   3000,
		WarpSize:         32,
		TransactionBytes: 128,
	}
}

// KernelStats aggregates every launch of one named kernel.
type KernelStats struct {
	Name string
	Kind Kind

	Calls         int64
	Cycles        float64
	ComputeCycles float64
	StallCycles   float64
	// LoadTransactions counts 128 B global-load transactions; the paper's
	// "Warp-level instructions for global loads" (Fig 6).
	LoadTransactions  int64
	StoreTransactions int64
	L2Hits            int64
	L2Misses          int64
}

// SMEfficiency returns the fraction of kernel time the SMs were issuing
// work rather than stalled, the nvprof sm_efficiency analogue.
func (k *KernelStats) SMEfficiency() float64 {
	if k.Cycles == 0 {
		return 0
	}
	return (k.Cycles - k.StallCycles) / k.Cycles
}

// StallPct returns the fraction of kernel time stalled on memory, the
// nvprof stall_memory_dependency analogue.
func (k *KernelStats) StallPct() float64 {
	if k.Cycles == 0 {
		return 0
	}
	return k.StallCycles / k.Cycles
}

// Sim is one simulated device. It is not safe for concurrent use; training
// loops drive it from a single goroutine, matching a CUDA stream.
type Sim struct {
	cfg     Config
	l2      *cache
	kernels map[string]*KernelStats
	next    uint64 // bump allocator cursor
	cycles  float64
}

// New returns a simulator over the given device config.
func New(cfg Config) *Sim {
	if cfg.ClockHz == 0 {
		cfg = GTX1080()
	}
	return &Sim{
		cfg:     cfg,
		l2:      newCache(cfg.L2Bytes, cfg.LineBytes, cfg.L2Ways),
		kernels: make(map[string]*KernelStats),
		next:    1 << 20, // leave a guard region at 0
	}
}

// Addr is a simulated device address.
type Addr = uint64

// Alloc reserves bytes of simulated device memory and returns its base
// address, 256-byte aligned like cudaMalloc.
func (s *Sim) Alloc(bytes int64) Addr {
	const align = 256
	base := (s.next + align - 1) &^ (align - 1)
	s.next = base + uint64(bytes)
	return base
}

// stats returns (creating on first use) the accumulator for a kernel name.
func (s *Sim) stats(name string, kind Kind) *KernelStats {
	k, ok := s.kernels[name]
	if !ok {
		k = &KernelStats{Name: name, Kind: kind}
		s.kernels[name] = k
	}
	return k
}

// account finalises one kernel launch given its compute cycles and the
// memory traffic it generated.
func (s *Sim) account(k *KernelStats, compute float64, loadTx, storeTx, hits, misses int64) {
	memBytes := float64(loadTx+storeTx) * float64(s.cfg.TransactionBytes)
	memPipeline := memBytes / s.cfg.BytesPerCycle
	latency := float64(misses)*s.cfg.GlobalLatency + float64(hits)*s.cfg.L2Latency
	// Effective MLP grows with launch size: a bigger launch puts more
	// independent accesses in flight (occupancy), so per-access latency
	// exposure falls — the amortization larger batches buy in Figure 5.
	// Index-dependent kinds cap out quickly (dependent addressing and
	// atomic contention bound their parallelism).
	mlp := k.Kind.mlp() * occupancyScale(hits+misses, k.Kind.occupancyCap())
	stall := latency / mlp
	// Streaming kernels overlap latency with useful issue; only the
	// portion beyond the busy window is exposed.
	busy := compute
	if memPipeline > busy {
		busy = memPipeline
	}
	exposed := stall - busy
	if exposed < 0 {
		exposed = 0
	}
	total := busy + exposed + s.cfg.LaunchOverhead

	k.Calls++
	k.Cycles += total
	k.ComputeCycles += compute
	k.StallCycles += exposed
	k.LoadTransactions += loadTx
	k.StoreTransactions += storeTx
	k.L2Hits += hits
	k.L2Misses += misses
	s.cycles += total
}

// GatherRows simulates an index-based row gather (one dgl aggregation
// read): for every index, a row of rowBytes is loaded from base +
// idx*rowBytes. Rows are 128 B-coalesced internally (feature dim across
// lanes), so the cost of irregularity is cache behaviour and exposed
// latency, not intra-row divergence.
func (s *Sim) GatherRows(name string, base Addr, indices []int32, rowBytes int64) {
	k := s.stats(name, KindGather)
	var loadTx, hits, misses int64
	for _, idx := range indices {
		addr := base + uint64(idx)*uint64(rowBytes)
		lines, miss := s.l2.accessBytes(addr, uint64(rowBytes))
		loadTx += lines
		misses += miss
		hits += lines - miss
	}
	// Index array itself streams in.
	idxLines, idxMiss := s.streamTouch(s.next+1<<25, int64(len(indices))*4)
	loadTx += idxLines
	misses += idxMiss
	hits += idxLines - idxMiss
	compute := float64(len(indices)) // one address computation per row
	s.account(k, compute, loadTx, 0, hits, misses)
}

// ScatterRows simulates an index-based row scatter (atomic accumulation of
// rowBytes rows into base + idx*rowBytes). Atomics read-modify-write, so
// each line is both loaded and stored.
func (s *Sim) ScatterRows(name string, base Addr, indices []int32, rowBytes int64) {
	k := s.stats(name, KindScatter)
	var tx, hits, misses int64
	for _, idx := range indices {
		addr := base + uint64(idx)*uint64(rowBytes)
		lines, miss := s.l2.accessBytes(addr, uint64(rowBytes))
		tx += lines
		misses += miss
		hits += lines - miss
	}
	compute := 2 * float64(len(indices)) // address + atomic op
	s.account(k, compute, tx, tx, hits, misses)
}

// Sequential simulates a coalesced streaming pass over [base, base+bytes),
// as a read or a write, under the given kernel name and kind.
func (s *Sim) Sequential(name string, kind Kind, base Addr, bytes int64, write bool) {
	k := s.stats(name, kind)
	lines, miss := s.l2.accessBytes(uint64(base), uint64(bytes))
	hits := lines - miss
	compute := float64(bytes) / 16 // light per-element work
	if write {
		s.account(k, compute, 0, lines, hits, miss)
	} else {
		s.account(k, compute, lines, 0, hits, miss)
	}
}

// Sgemm simulates a dense (m×k)·(k×n) fp32 matrix multiply with cuBLAS-like
// tiling: 2mkn flops of compute and one streaming pass over each operand.
func (s *Sim) Sgemm(m, k, n int) {
	st := s.stats("sgemm", KindSgemm)
	const elem = 4
	var loadTx, storeTx, hits, misses int64
	for _, sz := range []int64{int64(m) * int64(k) * elem, int64(k) * int64(n) * elem} {
		lines, miss := s.streamTouch(s.next+uint64(loadTx)*128, sz)
		loadTx += lines
		misses += miss
		hits += lines - miss
	}
	outLines, outMiss := s.streamTouch(s.next+1<<24, int64(m)*int64(n)*elem)
	storeTx += outLines
	misses += outMiss
	hits += outLines - outMiss
	compute := 2 * float64(m) * float64(k) * float64(n) / s.cfg.FlopsPerCycle * s.warpIssueFactor()
	s.account(st, compute, loadTx, storeTx, hits, misses)
}

// warpIssueFactor converts device-wide flop throughput into issue cycles.
// Kept at 1: FlopsPerCycle is already device wide.
func (s *Sim) warpIssueFactor() float64 { return 1 }

// occupancyScale models how launch size buys memory-level parallelism:
// below the reference access count the device is underoccupied (scale 1);
// beyond it, additional in-flight accesses overlap as sqrt of the excess,
// capped by the kind's scheduling limit.
func occupancyScale(accesses int64, limit float64) float64 {
	const reference = 1024.0
	if float64(accesses) <= reference {
		return 1
	}
	scale := math.Sqrt(float64(accesses) / reference)
	if scale > limit {
		return limit
	}
	return scale
}

// occupancyCap bounds how much extra MLP a large launch can expose.
func (k Kind) occupancyCap() float64 {
	switch k {
	case KindGather, KindScatter:
		return 2.5 // dependent addressing and atomics saturate early
	case KindSort, KindSync:
		return 2
	default:
		return 8 // streaming kinds are bandwidth bound anyway
	}
}

// streamTouch models a streaming scan of bytes starting at a synthetic
// address; it deliberately bypasses detailed L2 state for large transient
// streams (they would only wipe the cache), charging a fixed L2 hit ratio
// for re-streamed data.
func (s *Sim) streamTouch(base uint64, bytes int64) (lines, misses int64) {
	if bytes <= 0 {
		return 0, 0
	}
	lines = (bytes + s.cfg.LineBytes - 1) / s.cfg.LineBytes
	// Streams are consumed once; treat them as mostly missing (they are
	// too large/transient to live in L2) but prefetched.
	misses = lines
	return lines, misses
}

// Elementwise simulates a streaming elementwise kernel over elems elements
// of elemBytes (read + write).
func (s *Sim) Elementwise(name string, elems int, elemBytes int64) {
	k := s.stats(name, KindElementwise)
	bytes := int64(elems) * elemBytes
	lines, miss := s.streamTouch(s.next+1<<26, bytes)
	compute := float64(elems) / 128 // fused math, 128 lanes/cycle
	s.account(k, compute, lines, lines, lines-miss, miss)
}

// Sort simulates a cub radix sort over keys 4-byte keys with payloadBytes
// of attached payload: four counting passes, each streaming reads plus
// scattered writes.
func (s *Sim) Sort(name string, keys int, payloadBytes int64) {
	k := s.stats(name, KindSort)
	const passes = 4
	recBytes := int64(4) + payloadBytes
	bytes := int64(keys) * recBytes
	var loadTx, storeTx, hits, misses int64
	for p := 0; p < passes; p++ {
		lines, miss := s.streamTouch(s.next+1<<27, bytes)
		loadTx += lines
		misses += miss
		hits += lines - miss
		// Scattered writes: each record lands in its bucket; records
		// smaller than a line each touch a distinct line.
		recs := int64(keys)
		perLine := s.cfg.LineBytes / recBytes
		wl := recs
		if perLine > 1 {
			wl = recs / perLine * 2 // partial locality inside buckets
		}
		storeTx += wl
		misses += wl / 2
		hits += wl - wl/2
	}
	compute := float64(keys) * passes / 64
	s.account(k, compute, loadTx, storeTx, hits, misses)
}

// Memcpy simulates a device-side copy of bytes.
func (s *Sim) Memcpy(bytes int64) {
	k := s.stats("memcpy", KindMemcpy)
	lines, miss := s.streamTouch(s.next+1<<28, bytes)
	s.account(k, float64(lines)/64, lines, lines, lines-miss, miss)
}

// BandSweep simulates MEGA's diagonal attention pass: for each of offsets
// shifted sweeps over a path of pathLen rows of rowBytes, both operands
// stream sequentially (the shifted stream hits lines the unshifted stream
// just touched).
func (s *Sim) BandSweep(name string, base Addr, pathLen, offsets int, rowBytes int64) {
	k := s.stats(name, KindBand)
	bytes := int64(pathLen) * rowBytes
	var loadTx, hits, misses int64
	for o := 0; o < offsets; o++ {
		// Two operand streams per offset (positions i and i+o). The
		// first offset misses on first touch; later offsets and the
		// shifted stream hit lines the unshifted stream just brought in.
		lines, miss := s.streamTouch(uint64(base), bytes)
		loadTx += 2 * lines
		if o == 0 {
			misses += miss
			hits += 2*lines - miss
		} else {
			hits += 2 * lines
		}
	}
	outLines, outMiss := s.streamTouch(uint64(base)+1<<24, bytes)
	compute := float64(pathLen*offsets) * float64(rowBytes) / 4 / s.cfg.FlopsPerCycle * 8
	s.account(k, compute, loadTx, outLines, hits+outLines-outMiss, misses+outMiss)
}

// SyncRows simulates MEGA's duplicate-position synchronisation: a segment
// reduction over groups of row positions. Indices are path positions (near
// each other for most duplicates), modelled through the live cache.
func (s *Sim) SyncRows(name string, base Addr, positions []int32, rowBytes int64) {
	k := s.stats(name, KindSync)
	var tx, hits, misses int64
	for _, p := range positions {
		addr := base + uint64(p)*uint64(rowBytes)
		lines, miss := s.l2.accessBytes(addr, uint64(rowBytes))
		tx += lines
		misses += miss
		hits += lines - miss
	}
	s.account(k, float64(len(positions)), tx, tx, hits, misses)
}

// Stats returns per-kernel statistics sorted by descending cycles.
func (s *Sim) Stats() []KernelStats {
	out := make([]KernelStats, 0, len(s.kernels))
	for _, k := range s.kernels {
		out = append(out, *k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Kernel returns a copy of one kernel's stats and whether it exists.
func (s *Sim) Kernel(name string) (KernelStats, bool) {
	k, ok := s.kernels[name]
	if !ok {
		return KernelStats{}, false
	}
	return *k, true
}

// TotalCycles returns the simulated cycles across all launches.
func (s *Sim) TotalCycles() float64 { return s.cycles }

// TotalTime converts simulated cycles to wall-clock time on the device.
func (s *Sim) TotalTime() time.Duration {
	return time.Duration(s.cycles / s.cfg.ClockHz * float64(time.Second))
}

// WeightedSMEfficiency implements the paper's normalised metric
// (§IV-B2): Σ_k metric_k·n_k / Σ_k n_k with n_k the call count.
func (s *Sim) WeightedSMEfficiency() float64 {
	var num, den float64
	for _, k := range s.kernels {
		num += k.SMEfficiency() * float64(k.Calls)
		den += float64(k.Calls)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// WeightedStallPct is the call-weighted memory-stall percentage.
func (s *Sim) WeightedStallPct() float64 {
	var num, den float64
	for _, k := range s.kernels {
		num += k.StallPct() * float64(k.Calls)
		den += float64(k.Calls)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// KernelTimeShare returns each kernel's share of total cycles.
func (s *Sim) KernelTimeShare() map[string]float64 {
	out := make(map[string]float64, len(s.kernels))
	if s.cycles == 0 {
		return out
	}
	for name, k := range s.kernels {
		out[name] = k.Cycles / s.cycles
	}
	return out
}

// Reset clears all counters and cache state but keeps allocations.
func (s *Sim) Reset() {
	s.kernels = make(map[string]*KernelStats)
	s.cycles = 0
	s.l2.reset()
}

// Config returns the device configuration.
func (s *Sim) Config() Config { return s.cfg }
