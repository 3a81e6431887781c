//go:build !amd64

package tensor

// Off amd64 the micro-kernels are the portable generic ones.

func saxpy32(alpha float32, x, y []float32) { axpy(alpha, x, y) }

func matmulTile32(a []float32, aStep int, b []float32, bStride int, o []float32, steps int) {
	matmulTile(a, aStep, b, bStride, o, steps)
}

func matmulTile64(a []float64, aStep int, b []float64, bStride int, o []float64, steps int) {
	matmulTile(a, aStep, b, bStride, o, steps)
}
