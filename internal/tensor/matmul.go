package tensor

import (
	"fmt"

	"mega/internal/compute"
)

// MatMul returns a·b for a [m×k] and b [k×n]. Forward, dA and dB all run
// matmulRows, so each element accumulates in ascending order of the shared
// dimension and is bit-identical to the serial kernel at any thread count.
func MatMul(a, b *Tensor) *Tensor {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	m, k, n := a.rows, a.cols, b.cols
	out := newResult(m, n, a, b)
	compute.ParallelGrain(m, workGrain(k*n), func(lo, hi int) {
		matmulRows(out.Data, a.Data, b.Data, k, 1, k, n, lo, hi, matmulTile64)
	})
	if out.requiresGrad {
		out.backFn = func() { matmulBackward(a, b, out.Grad) }
	}
	return out
}

// matmulBackward accumulates the gradients of out = a·b into a and b from
// dout, out's gradient.
func matmulBackward(a, b *Tensor, dout []float64) {
	m, k, n := a.rows, a.cols, b.cols
	if a.requiresGrad {
		fresh := a.Grad == nil
		a.ensureGrad()
		matmulGradA(a.Grad, dout, b.Data, m, k, n, fresh)
	}
	if b.requiresGrad {
		// dB += Aᵀ·dOut is the nest reading a down its columns: row p of
		// dB accumulates in place over ascending i.
		b.ensureGrad()
		compute.ParallelGrain(k, workGrain(m*n), func(lo, hi int) {
			matmulRows(b.Grad, a.Data, dout, 1, k, m, n, lo, hi, matmulTile64)
		})
	}
}

// matmulScratch lends matmulGradA its packed Bᵀ and its product blocks.
var matmulScratch bucketPool[float64]

// matmulGradA accumulates dA += dOut·Bᵀ as forward over a packed Bᵀ. A
// fresh da (zeroed for this call) takes the product directly. Otherwise the
// product goes matmulKBlock rows at a time into zeroed scratch that is then
// added to da: da is already non-zero when a feeds several ops, and
// (da + t₀) + t₁ … is not da + (t₀ + t₁ …). The scratch chain starts at +0
// like a fresh da's, and a sum that starts at +0 never reaches -0, so
// 0 + chain is the chain: both routes give the same bits. The zero skip
// only drops ±0 terms from such a sum, which changes nothing while b is
// finite.
func matmulGradA(da, dout, b []float64, m, k, n int, fresh bool) {
	bt := matmulScratch.get(n * k)
	for p := 0; p < k; p++ {
		for j, v := range b[p*n : (p+1)*n] {
			bt[j*k+p] = v
		}
	}
	compute.ParallelGrain(m, workGrain(k*n), func(lo, hi int) {
		if fresh {
			matmulRows(da, dout, bt, n, 1, n, k, lo, hi, matmulTile64)
			return
		}
		prod := matmulScratch.get(matmulKBlock * k)
		for r := lo; r < hi; r += matmulKBlock {
			rows := min(matmulKBlock, hi-r)
			matmulRows(prod, dout[r*n:], bt, n, 1, n, k, 0, rows, matmulTile64)
			for i, v := range prod[:rows*k] {
				da[r*k+i] += v
				prod[i] = 0
			}
		}
		matmulScratch.put(prod)
	})
	matmulScratch.put(bt)
}

// matmulRows is the one matmul loop nest, for both precisions and all three
// products: dst[r][j] += Σ_s a[r·aRow + s·aStep] · b[s·cols + j] for rows
// lo ≤ r < hi, j < cols and s < steps. Forward is (aRow, aStep) = (k, 1);
// dB reads a transposed, (1, k); dA is forward over a packed Bᵀ. The
// shared dimension is tiled at matmulKBlock and the rows sweep each block,
// a row's full 16-column tiles walked by one tile call. Tile and tail loop
// share one contract — s ascending, a == 0 skipped (NaN is not), each
// product rounded before it is added — so every output element is one
// scalar mul-then-add chain whatever the tiling, row split or GOARCH.
// Callers split the rows, each output row owned by one chunk: a closure
// here would capture all ten arguments, theirs capture three pointers.
func matmulRows[T float](dst, a, b []T, aRow, aStep, steps, cols, lo, hi int,
	tile func(a []T, aStep int, b []T, bStride int, o []T, steps int)) {
	full := cols &^ 15
	for sb := 0; sb < steps; sb += matmulKBlock {
		blk := min(matmulKBlock, steps-sb)
		bblk := b[sb*cols:]
		for r := lo; r < hi; r++ {
			ablk := a[r*aRow+sb*aStep:]
			orow := dst[r*cols : (r+1)*cols]
			tile(ablk, aStep, bblk, cols, orow[:full], blk)
			for s := 0; s < blk && full < cols; s++ {
				if av := ablk[s*aStep]; av != 0 {
					axpy(av, bblk[s*cols+full:(s+1)*cols], orow[full:])
				}
			}
		}
	}
}
