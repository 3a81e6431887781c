//go:build amd64

package tensor

// tile32Kernels and tile64Kernels list every tile body of each precision
// this host can run, called directly rather than through the matmulTile32
// and matmulTile64 dispatch, so both amd64 bodies are pinned and priced on
// an AVX2 host.
func tile32Kernels() []tileKernel[float32] {
	ks := []tileKernel[float32]{{"sse", matmulTile32SSE}}
	if hasAVX2 {
		ks = append(ks, tileKernel[float32]{"avx2", matmulTile32AVX2})
	}
	return ks
}

func tile64Kernels() []tileKernel[float64] {
	ks := []tileKernel[float64]{{"sse2", matmulTile64SSE2}}
	if hasAVX2 {
		ks = append(ks, tileKernel[float64]{"avx2", matmulTile64AVX2})
	}
	return ks
}
