package tensor

// The portable micro-kernels: what every architecture but amd64 runs, and
// what the amd64 assembly is pinned to (TestSIMDKernelsMatchReference).
// Every multiply-add here is written y += T(a * x): the conversion rounds
// the product before the add, where a bare y += a*x is fused into one FMA
// on arm64, ppc64le, s390x and riscv64. `make portable-check` fails if a
// line of this file compiles to a fused multiply-add.

// axpy computes y[i] += alpha·x[i] for i < len(y) — the portable
// aggregation micro-kernel, the float64 one, and matmulRows' tail loop.
func axpy[T float](alpha T, x, y []T) {
	x = x[:len(y)]
	for i := range y {
		y[i] += T(alpha * x[i])
	}
}

// matmulTile is the portable register tile: for every full 16-column tile
// t of o, o[16t+j] += Σ_{s<steps} a[s·aStep] · b[s·bStride + 16t + j],
// under matmulRows' contract. len(o) must be a multiple of 16, a must reach
// (steps-1)·aStep and b must reach (steps-1)·bStride + len(o) - 1.
func matmulTile[T float](a []T, aStep int, b []T, bStride int, o []T, steps int) {
	for t := 0; t+16 <= len(o); t += 16 {
		var acc [16]T
		copy(acc[:], o[t:])
		for s := 0; s < steps; s++ {
			av := a[s*aStep]
			if av == 0 {
				continue
			}
			row := b[s*bStride+t:][:16]
			for j := range acc {
				acc[j] += T(av * row[j])
			}
		}
		copy(o[t:], acc[:])
	}
}
