package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mega/internal/compute"
)

// unfusedEpilogue32 is ep as the separate whole-matrix passes the f32
// forward ran before the epilogue: bias, ReLU, residual add (residual on
// the left, as Add32(h, proj) had it), then LayerNorm into a new matrix.
func unfusedEpilogue32(x *F32, ep Epilogue32) []float32 {
	out := append([]float32(nil), x.Data...)
	cols := x.cols
	for i := range out {
		j := i % cols
		if ep.Bias != nil {
			out[i] += ep.Bias[j]
		}
		if ep.ReLU && out[i] <= 0 {
			out[i] = 0
		}
		if ep.Residual != nil {
			out[i] = ep.Residual.Data[i] + out[i]
		}
	}
	if ep.Gamma == nil {
		return out
	}
	n := float32(cols)
	normed := make([]float32, len(out))
	for r := 0; r < x.rows; r++ {
		row := out[r*cols : (r+1)*cols]
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean /= n
		var vari float32
		for _, v := range row {
			d := v - mean
			vari += float32(d * d)
		}
		vari /= n
		is := float32(1 / math.Sqrt(float64(vari)+normEps))
		for j, v := range row {
			normed[r*cols+j] = float32(ep.Gamma[j]*((v-mean)*is)) + ep.Beta[j]
		}
	}
	return normed
}

// TestMatMulEpilogue32MatchesUnfused runs every combination of the
// epilogue's steps — the models use bias, bias+ReLU and
// bias+residual+LayerNorm — against MatMul32 followed by the unfused
// passes, bit for bit, at one thread and at two. a, the bias and the
// residual carry ±0, NaN and Inf; the shapes cross a k-block, the AVX2
// tile's four-tile sweep and the cols mod 16 tail.
func TestMatMulEpilogue32MatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const rows, k = 37, 70
	for _, cols := range []int{16, 64, 133} {
		a := NewF32(rows, k, fillSpecials[float32](rng, rows*k))
		a.Data[3*k+5], a.Data[9*k+1], a.Data[20*k+66] = float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))
		w := NewF32(k, cols, fillSpecials[float32](rng, k*cols))
		bias := fillSpecials[float32](rng, cols)
		bias[1], bias[2] = float32(math.Inf(1)), float32(math.NaN())
		res := NewF32(rows, cols, fillSpecials[float32](rng, rows*cols))
		res.Data[5*cols+3], res.Data[11*cols] = float32(math.Inf(-1)), float32(math.NaN())
		gamma, beta := fillSpecials[float32](rng, cols), fillSpecials[float32](rng, cols)
		for combo := 0; combo < 16; combo++ {
			var ep Epilogue32
			if combo&1 != 0 {
				ep.Bias = bias
			}
			ep.ReLU = combo&2 != 0
			if combo&4 != 0 {
				ep.Residual = res
			}
			if combo&8 != 0 {
				ep.Gamma, ep.Beta = gamma, beta
			}
			for _, threads := range []int{1, 2} {
				name := fmt.Sprintf("cols=%d bias=%v relu=%v residual=%v norm=%v threads=%d",
					cols, ep.Bias != nil, ep.ReLU, ep.Residual != nil, ep.Gamma != nil, threads)
				prev := compute.SetMaxThreads(threads)
				arena := NewArena()
				want := unfusedEpilogue32(MatMul32(a, w, arena), ep)
				got := MatMulEpilogue32(a, w, ep, arena).Data
				compute.SetMaxThreads(prev)
				for i := range want {
					g, wt := got[i], want[i]
					if math.Float32bits(g) != math.Float32bits(wt) && !(g != g && wt != wt) {
						t.Fatalf("%s: elem %d got %v (%x) want %v (%x)",
							name, i, g, math.Float32bits(g), wt, math.Float32bits(wt))
					}
				}
			}
		}
	}
}
