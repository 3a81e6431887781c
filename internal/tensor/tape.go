package tensor

import "math"

// Tape is a step-scoped bump allocator for the autograd graph's float64
// buffers: every op result's Data, every non-leaf Grad, and the scratch an
// op's backward closure keeps (LayerNorm's x̂, SegmentMean's counts, …).
// A training step builds and walks a graph of a few hundred such buffers
// and drops them all at once; carving them out of a few reused 4 MiB
// chunks instead of the heap takes the step's allocation, its zeroing and
// the GC work it causes off the critical path.
//
// The tape travels with tensors: an op result is on its parents' tape, and
// parents on two different tapes panic. A graph enters a tape through its
// first tape-bearing op — EmbedRows for the models' encoders, whose only
// parents are parameters. Leaves never carry a tape, so a parameter's
// Grad and everything the optimiser keeps stays on the heap.
//
// Release rewinds the tape once the step is done with every tensor on it;
// a tensor from before a Release must not be touched after it. A nil
// *Tape is valid and degrades to plain make, exactly as a nil *Arena does.
// A Tape is not safe for concurrent use: graphs built by concurrent
// workers (the shard engine) run without one.
type Tape struct {
	// chunks[i] is a tapeChunk-capacity slab whose length is the prefix
	// handed out since the last Release; chunks after cur are empty.
	chunks [][]float64
	cur    int
}

// tapeChunk is a chunk's capacity in elements (4 MiB). A request larger
// than a chunk is made on the heap.
const tapeChunk = 4 << 20 / 8

// tapePoison is a use-after-release guard for tests: while set, Release
// fills what it rewinds with NaN, so a stale read, or an op that leaves an
// element of an uncleared buffer unwritten, poisons the loss.
var tapePoison bool

// NewTape creates an empty tape.
func NewTape() *Tape { return &Tape{} }

// get returns a zeroed n-element slice, for a buffer something accumulates
// into (a gradient, a product, a scatter sum). It is cleared here, as it is
// handed out and about to be written, rather than at Release.
func (tp *Tape) get(n int) []float64 { return tp.take(n, true) }

// getRaw returns an n-element slice holding whatever the tape last held
// there, for a buffer its op writes in full before anything reads it.
func (tp *Tape) getRaw(n int) []float64 { return tp.take(n, false) }

// take carves n elements off the tape, clearing them if zero is set. The
// capacity is clipped to n, so an append can never spill into a neighbour.
func (tp *Tape) take(n int, zero bool) []float64 {
	if tp == nil || n == 0 || n > tapeChunk {
		return make([]float64, n)
	}
	for ; tp.cur < len(tp.chunks); tp.cur++ {
		if c := tp.chunks[tp.cur]; cap(c)-len(c) >= n {
			u := len(c)
			tp.chunks[tp.cur] = c[:u+n]
			s := c[u : u+n : u+n]
			if zero {
				clear(s)
			}
			return s
		}
	}
	tp.chunks = append(tp.chunks, make([]float64, n, tapeChunk))
	return tp.chunks[tp.cur][:n:n]
}

// Release rewinds the tape. It clears nothing: get clears what it hands
// out. Every tensor built on the tape since the last Release is invalid
// afterwards. Release on a nil tape does nothing.
func (tp *Tape) Release() {
	if tp == nil {
		return
	}
	for i, c := range tp.chunks {
		if len(c) == 0 {
			break
		}
		if tapePoison {
			for j := range c {
				c[j] = math.NaN()
			}
		}
		tp.chunks[i] = c[:0]
	}
	tp.cur = 0
}

// EmbedRows is the package EmbedRows with its result on tp: the op that
// brings a graph whose inputs are all parameters onto a tape.
func (tp *Tape) EmbedRows(table *Tensor, ids []int32) *Tensor {
	return gatherRows(tp, table, ids)
}
