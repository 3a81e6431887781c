//go:build !amd64

package tensor

// Portable fallbacks for the SSE kernels in simd_amd64.s. Each SSE lane
// performs exactly one of these scalar multiply-adds in the same
// per-element order, so the two implementations are bit-identical — the
// assembly changes throughput, not numerics.

// saxpy32 computes y[i] += alpha*x[i] for i < len(y). len(x) must be at
// least len(y).
func saxpy32(alpha float32, x, y []float32) { axpy(alpha, x, y) }

// matmulTile32 accumulates one 16-column register tile of an output row:
// o[j] += Σ_p a[p]·b[p*stride+j] for j < 16, skipping rows with
// a[p] == 0 like the scalar kernels. len(o) must be at least 16 and
// len(b) at least (len(a)-1)*stride+16.
func matmulTile32(a, b, o []float32, stride int) {
	o = o[:16]
	var s [16]float32
	copy(s[:], o)
	for p, av := range a {
		if av == 0 {
			continue
		}
		row := b[p*stride:]
		for j := range s {
			s[j] += av * row[j]
		}
	}
	copy(o, s[:])
}
