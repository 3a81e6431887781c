//go:build !amd64

package tensor

// tile64Kernels lists the float64 tiles besides the dispatched one: off
// amd64 there are none.
func tile64Kernels() []tile64Kernel { return nil }
