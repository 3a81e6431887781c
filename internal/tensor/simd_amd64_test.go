//go:build amd64

package tensor

// tile64Kernels lists every float64 tile this host can run, called
// directly rather than through the matmulTile64 dispatch, so both amd64
// bodies are pinned and priced on an AVX2 host.
func tile64Kernels() []tile64Kernel {
	ks := []tile64Kernel{{"sse2", matmulTile64SSE2}}
	if hasAVX2 {
		ks = append(ks, tile64Kernel{"avx2", matmulTile64AVX2})
	}
	return ks
}
