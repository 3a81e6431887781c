//go:build !amd64

package tensor

// tile32Kernels and tile64Kernels list the tiles besides the dispatched
// ones: off amd64 there are none.
func tile32Kernels() []tileKernel[float32] { return nil }

func tile64Kernels() []tileKernel[float64] { return nil }
