package tensor

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Arena is a step-scoped pool of scratch buffers for the fused attention
// path. Training steps and serve batches allocate the same buffer shapes
// over and over; checking them out of a pool instead of the heap makes the
// steady-state attention path allocation-free.
//
// There is one bucket pool per precision (float64 for the training/serving
// tape path, float32 for the inference fast path), both instances of the
// same generic bucketPool. Buffers are bucketed by power-of-two capacity,
// so batches of different shapes share buckets instead of each opening its
// own. Get returns a zeroed buffer (the fused kernels accumulate into their
// scratch, so a dirty buffer would be a correctness bug, not just noise).
// Put zeroes before parking so the cost is paid off the critical Get path
// of the next step. A dirty-buffer Get32 variant with kernel-side clears
// was tried and measured ~25% slower end to end on the serving box —
// zeroing a just-released buffer while its lines are still cache-resident
// beats clearing a long-parked cold one right before use.
//
// An Arena is safe for concurrent use: serve workers running forwards in
// parallel share one arena per server. A nil *Arena is valid and degrades
// to plain make, so the staged path and tests pay nothing.
type Arena struct {
	f64 bucketPool[float64]
	f32 bucketPool[float32]
}

// arenaParkFactor bounds what one precision keeps parked: a Put that would
// take the parked capacity past arenaParkFactor × PeakBytes drops the
// buffer for the GC instead. A steady workload parks about its own peak
// working set (at most 2× it, from the power-of-two rounding), so the
// bound only bites on a pool fed more than it ever lent out at once.
const arenaParkFactor = 4

// ArenaPrecisionStats are the occupancy counters for one precision's
// buckets. InUseBytes and PeakBytes count buffer payload (len × element
// size); ParkedBytes counts capacity.
type ArenaPrecisionStats struct {
	// Borrows counts Get calls served (hit or miss).
	Borrows uint64 `json:"borrows"`
	// BucketHits counts Gets satisfied from a parked buffer.
	BucketHits uint64 `json:"bucket_hits"`
	// BucketMisses counts Gets that fell through to make.
	BucketMisses uint64 `json:"bucket_misses"`
	// InUseBytes is the payload currently checked out (Get minus Put).
	InUseBytes uint64 `json:"in_use_bytes"`
	// PeakBytes is the high-water mark of InUseBytes.
	PeakBytes uint64 `json:"peak_bytes"`
	// ParkedBytes is the capacity currently parked for reuse, never more
	// than arenaParkFactor × PeakBytes.
	ParkedBytes uint64 `json:"parked_bytes"`
}

// ArenaStats is a point-in-time snapshot of both precisions' counters,
// exported on the serve /metrics endpoint.
type ArenaStats struct {
	F64 ArenaPrecisionStats `json:"f64"`
	F32 ArenaPrecisionStats `json:"f32"`
}

// NewArena creates an empty arena.
func NewArena() *Arena { return &Arena{} }

// bucketPool is one precision's pool. free[c] parks buffers of capacity
// exactly 1<<c; every parked buffer is zero over its whole capacity. A nil
// pool degrades to plain make.
type bucketPool[T float32 | float64] struct {
	mu    sync.Mutex
	free  [bits.UintSize][][]T
	stats ArenaPrecisionStats
}

func (b *bucketPool[T]) elemSize() uint64 {
	var z T
	return uint64(unsafe.Sizeof(z))
}

// get checks out a zeroed buffer of length n.
func (b *bucketPool[T]) get(n int) []T {
	if b == nil || n == 0 {
		return make([]T, n)
	}
	c := bits.Len(uint(n - 1))
	var buf []T
	b.mu.Lock()
	if free := b.free[c]; len(free) > 0 {
		buf = free[len(free)-1][:n]
		b.free[c] = free[:len(free)-1]
		b.stats.ParkedBytes -= b.elemSize() << c
		b.stats.BucketHits++
	} else {
		b.stats.BucketMisses++
	}
	b.stats.Borrows++
	b.stats.InUseBytes += uint64(n) * b.elemSize()
	if b.stats.InUseBytes > b.stats.PeakBytes {
		b.stats.PeakBytes = b.stats.InUseBytes
	}
	b.mu.Unlock()
	if buf == nil {
		buf = make([]T, n, 1<<c)
	}
	return buf
}

// put zeroes buf and parks it. Only the length is cleared: a buffer from
// get is still zero past it. A foreign buffer (never borrowed here) parks
// only when its capacity is a power of two and must be passed at full
// length; its release clamps InUseBytes at zero instead of underflowing.
func (b *bucketPool[T]) put(buf []T) {
	if b == nil || len(buf) == 0 {
		return
	}
	clear(buf)
	payload := uint64(len(buf)) * b.elemSize()
	c := bits.Len(uint(cap(buf) - 1))
	parked := b.elemSize() << c
	b.mu.Lock()
	b.stats.InUseBytes -= min(payload, b.stats.InUseBytes)
	if cap(buf) == 1<<c && b.stats.ParkedBytes+parked <= arenaParkFactor*b.stats.PeakBytes {
		b.free[c] = append(b.free[c], buf)
		b.stats.ParkedBytes += parked
	}
	b.mu.Unlock()
}

func (b *bucketPool[T]) buffered() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, free := range b.free {
		n += len(free)
	}
	return n
}

func (b *bucketPool[T]) snapshot() ArenaPrecisionStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// pool64 and pool32 hand the generic kernels their precision's pool; nil
// for a nil arena.
func (a *Arena) pool64() *bucketPool[float64] {
	if a == nil {
		return nil
	}
	return &a.f64
}

func (a *Arena) pool32() *bucketPool[float32] {
	if a == nil {
		return nil
	}
	return &a.f32
}

// Get checks out a zeroed float64 buffer of length n.
func (a *Arena) Get(n int) []float64 { return a.pool64().get(n) }

// Put zeroes buf and parks it for reuse. Putting a buffer twice, or using
// it after Put, is a caller bug (the usual pool contract). A nil arena
// drops the buffer for the GC.
func (a *Arena) Put(buf []float64) { a.pool64().put(buf) }

// Get32 checks out a zeroed float32 buffer of length n — the inference
// fast path's counterpart of Get.
func (a *Arena) Get32(n int) []float32 { return a.pool32().get(n) }

// Put32 zeroes buf and parks it, under the same contract as Put.
func (a *Arena) Put32(buf []float32) { a.pool32().put(buf) }

// Stats snapshots the occupancy counters. A nil arena reports zeros.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return ArenaStats{F64: a.f64.snapshot(), F32: a.f32.snapshot()}
}

// Buffered reports how many buffers are currently parked across both
// precisions (test hook).
func (a *Arena) Buffered() int {
	if a == nil {
		return 0
	}
	return a.f64.buffered() + a.f32.buffered()
}
