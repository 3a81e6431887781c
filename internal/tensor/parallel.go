package tensor

// Parallelisation policy for the tensor kernels, built on the
// internal/compute worker pool. Every kernel in this package follows one
// of two deterministic decompositions:
//
//   - row/element split: each chunk owns a disjoint slice of the output
//     (and of the gradient it writes), computed in exactly the serial
//     order — bit-identical at any thread count;
//   - column split: scatter-style accumulations (ScatterAddRows, gather
//     backward) partition the *columns* so concurrent chunks never touch
//     the same accumulator, while the row-ascending accumulation order per
//     element stays the serial order.
//
// MatMul's forward, dA and dB are all row splits of the one loop nest
// matmulRows: dB is that nest reading a down its columns, so its chunks
// own rows of dB.
//
// No kernel combines partial floating-point sums across chunks except via
// compute.ReduceSum, whose partition is fixed independent of the thread
// count. See DESIGN.md, "Threading model".

const (
	// elemGrain is the minimum number of elements per chunk for flat
	// elementwise loops; below ~4k elements goroutine handoff costs more
	// than the loop body.
	elemGrain = 4096
	// flopGrain is the minimum number of multiply-adds per chunk for
	// matmul-like kernels: matmulRows' callers split rows at
	// workGrain(steps·cols).
	flopGrain = 1 << 15
	// matmulKBlock is how many steps of the shared dimension matmulRows
	// takes per sweep of its rows, so a [matmulKBlock × cols] block of b
	// stays cache-resident while every row's tiles accumulate over it. It
	// is what keeps large products fast, not only small ones: unblocked,
	// a 512-wide b has a 4 KiB row stride, one tile's walk down it aliases
	// a single L1 set, and both precisions drop below the scalar loops.
	matmulKBlock = 64
)

// rowGrain returns the minimum rows per chunk for a row-split kernel over
// cols-wide rows.
func rowGrain(cols int) int {
	if cols < 1 {
		cols = 1
	}
	g := elemGrain / cols
	if g < 1 {
		g = 1
	}
	return g
}

// workGrain returns the minimum outer iterations per chunk when each
// iteration performs `inner` multiply-adds.
func workGrain(inner int) int {
	if inner < 1 {
		inner = 1
	}
	g := flopGrain / inner
	if g < 1 {
		g = 1
	}
	return g
}
