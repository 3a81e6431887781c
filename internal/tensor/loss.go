package tensor

import (
	"fmt"
	"math"

	"mega/internal/compute"
)

// Loss functions, each returning a 1×1 tensor suitable for Backward.

// MSELoss returns mean((pred − target)²) over all elements. target carries
// no gradient.
func MSELoss(pred, target *Tensor) *Tensor {
	assertSameShape("mse", pred, target)
	d := Sub(pred, target)
	return Mean(Mul(d, d))
}

// MAELoss returns mean(|pred − target|), the metric the ZINC/AQSOL
// regression benchmarks report. The reduction uses compute.ReduceSum's
// fixed partition, so the value is thread-count invariant.
func MAELoss(pred, target *Tensor) *Tensor {
	assertSameShape("mae", pred, target)
	out := newResultRaw(1, 1, pred)
	s := compute.ReduceSum(len(pred.Data), func(lo, hi int) float64 {
		t := 0.0
		for i := lo; i < hi; i++ {
			t += math.Abs(pred.Data[i] - target.Data[i])
		}
		return t
	})
	out.Data[0] = s / float64(len(pred.Data))
	if out.requiresGrad {
		out.backFn = func() {
			pred.ensureGrad()
			g := out.Grad[0] / float64(len(pred.Data))
			compute.ParallelGrain(len(pred.Data), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					switch {
					case pred.Data[i] > target.Data[i]:
						pred.Grad[i] += g
					case pred.Data[i] < target.Data[i]:
						pred.Grad[i] -= g
					}
				}
			})
		}
	}
	return out
}

// CrossEntropyLoss returns the mean softmax cross-entropy of logits
// (rows×classes) against integer labels, fused for numerical stability.
// Rows are processed in parallel into a per-row loss scratch that is then
// summed serially in row order, so the total matches the serial kernel
// bit for bit.
func CrossEntropyLoss(logits *Tensor, labels []int) *Tensor {
	if len(labels) != logits.rows {
		panic(fmt.Sprintf("tensor: %d labels for %d rows", len(labels), logits.rows))
	}
	cols := logits.cols
	for i, l := range labels {
		if l < 0 || l >= cols {
			panic(fmt.Sprintf("tensor: label %d (row %d) out of %d classes", l, i, cols))
		}
	}
	out := newResultRaw(1, 1, logits)
	probs := out.tape.getRaw(len(logits.Data))
	rowLoss := out.tape.getRaw(logits.rows)
	compute.ParallelGrain(logits.rows, rowGrain(cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := logits.Data[i*cols : (i+1)*cols]
			mx := math.Inf(-1)
			for _, v := range row {
				if v > mx {
					mx = v
				}
			}
			sum := 0.0
			for j, v := range row {
				e := math.Exp(v - mx)
				probs[i*cols+j] = e
				sum += e
			}
			for j := range row {
				probs[i*cols+j] /= sum
			}
			rowLoss[i] = -math.Log(probs[i*cols+labels[i]] + 1e-12)
		}
	})
	total := 0.0
	for _, l := range rowLoss {
		total += l
	}
	out.Data[0] = total / float64(logits.rows)
	if out.requiresGrad {
		out.backFn = func() {
			logits.ensureGrad()
			g := out.Grad[0] / float64(logits.rows)
			compute.ParallelGrain(logits.rows, rowGrain(cols), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					for j := 0; j < cols; j++ {
						p := probs[i*cols+j]
						if j == labels[i] {
							p -= 1
						}
						logits.Grad[i*cols+j] += g * p
					}
				}
			})
		}
	}
	return out
}

// Accuracy returns the fraction of rows whose argmax matches the label.
// Pure metric: no gradient.
func Accuracy(logits *Tensor, labels []int) float64 {
	if logits.rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < logits.rows; i++ {
		row := logits.Data[i*logits.cols : (i+1)*logits.cols]
		best, bestV := 0, math.Inf(-1)
		for j, v := range row {
			if v > bestV {
				best, bestV = j, v
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(logits.rows)
}
