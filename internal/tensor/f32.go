package tensor

import (
	"fmt"
	"math"
)

// F32 is the inference-only float32 matrix. It carries no tape: the f32
// kernels in kernels32.go / attention32.go are forward-only functions over
// frozen (downcast) weights, so there is nothing to differentiate and no
// graph to build. Training stays entirely on the float64 Tensor.
type F32 struct {
	rows, cols int
	Data       []float32
}

// NewF32 wraps data as a rows×cols matrix (data is aliased, not copied).
func NewF32(rows, cols int, data []float32) *F32 {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: f32 data %d != %dx%d", len(data), rows, cols))
	}
	return &F32{rows: rows, cols: cols, Data: data}
}

// ZerosF32 allocates a zeroed rows×cols matrix from the heap.
func ZerosF32(rows, cols int) *F32 {
	return &F32{rows: rows, cols: cols, Data: make([]float32, rows*cols)}
}

// Rows returns the row count.
func (t *F32) Rows() int { return t.rows }

// Cols returns the column count.
func (t *F32) Cols() int { return t.cols }

// At returns element (i, j).
func (t *F32) At(i, j int) float32 { return t.Data[i*t.cols+j] }

// GetF32 checks out a zeroed rows×cols matrix backed by arena scratch.
// Release it with PutF32 when the value dies; the F32 header itself is a
// small heap object, only the payload is pooled.
func (a *Arena) GetF32(rows, cols int) *F32 {
	return &F32{rows: rows, cols: cols, Data: a.Get32(rows * cols)}
}

// PutF32 parks t's payload back in the arena. nil t is a no-op.
func (a *Arena) PutF32(t *F32) {
	if t == nil {
		return
	}
	a.Put32(t.Data)
	t.Data = nil
}

// Downcast rounds x to float32 (one rounding per element, round-to-nearest
// — Go's float64→float32 conversion). This is the checkpoint downcast: it
// runs once at load, so serving never re-rounds weights per request.
func Downcast(x *Tensor) *F32 {
	out := ZerosF32(x.rows, x.cols)
	for i, v := range x.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// Upcast widens t back to a plain (no-grad) float64 Tensor — the serve
// boundary conversion from the f32 fast path to the float64 wire format.
func (t *F32) Upcast() *Tensor {
	out := Zeros(t.rows, t.cols)
	for i, v := range t.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// ---------------------------------------------------------------------------
// ULP / relative-error divergence measurement.
//
// Bit-identity cannot hold across precisions, so the differential harness
// quantifies the gap instead: for each output it measures the ULP distance
// between the f32 result and the correctly-rounded f64 reference, and the
// relative error with a floored denominator. Near-zero references are
// excluded from the ULP statistic (catastrophic cancellation makes ULP
// distance meaningless at the bottom of the float range) but still count
// toward the absolute-error statistic.

// ULPDistance32 returns how many representable float32 values lie between
// a and b (0 when bit-equal; +0 and -0 are identified). NaN on either side
// returns MaxInt64.
func ULPDistance32(a, b float32) int64 {
	if a != a || b != b {
		return math.MaxInt64
	}
	d := orderedBits32(math.Float32bits(a)) - orderedBits32(math.Float32bits(b))
	if d < 0 {
		d = -d
	}
	return d
}

// orderedBits32 maps float32 bit patterns to integers so that the float
// ordering matches the integer ordering and adjacent floats map to
// adjacent integers.
func orderedBits32(b uint32) int64 {
	if b&0x8000_0000 != 0 {
		return -int64(b & 0x7fff_ffff)
	}
	return int64(b)
}

// Divergence summarises the elementwise gap between a float32 result and
// its float64 reference. Zero value = "nothing compared yet"; fold runs
// together with Merge.
type Divergence struct {
	// MaxULP is the worst ULP distance over elements whose reference
	// magnitude is at least the measurement floor.
	MaxULP int64 `json:"max_ulp"`
	// MaxRelErr is the worst |got−ref| / max(|ref|, floor).
	MaxRelErr float64 `json:"max_rel_err"`
	// MaxAbsErr is the worst |got−ref| over all elements.
	MaxAbsErr float64 `json:"max_abs_err"`
	// Compared counts elements folded in.
	Compared int `json:"compared"`
}

// MeasureDivergence compares got against the float64 reference ref.
// relFloor (> 0) is both the relative-error denominator floor and the
// magnitude below which elements are excluded from the ULP statistic. A
// NaN on either side counts as MaxInt64 ULP and an infinite relative and
// absolute error, below the floor too.
func MeasureDivergence(got []float32, ref []float64, relFloor float64) Divergence {
	if len(got) != len(ref) {
		panic(fmt.Sprintf("tensor: divergence lengths %d/%d", len(got), len(ref)))
	}
	if relFloor <= 0 {
		panic("tensor: divergence floor must be positive")
	}
	var d Divergence
	for i, g := range got {
		r := ref[i]
		if g != g || r != r { // every comparison below would let a NaN through
			d.MaxULP, d.MaxRelErr, d.MaxAbsErr = math.MaxInt64, math.Inf(1), math.Inf(1)
			d.Compared++
			continue
		}
		abs := math.Abs(float64(g) - r)
		if abs > d.MaxAbsErr {
			d.MaxAbsErr = abs
		}
		den := math.Abs(r)
		if den < relFloor {
			den = relFloor
		} else if u := ULPDistance32(g, float32(r)); u > d.MaxULP {
			d.MaxULP = u
		}
		if rel := abs / den; rel > d.MaxRelErr {
			d.MaxRelErr = rel
		}
		d.Compared++
	}
	return d
}

// Merge folds o into d (running worst-case over multiple outputs).
func (d *Divergence) Merge(o Divergence) {
	if o.MaxULP > d.MaxULP {
		d.MaxULP = o.MaxULP
	}
	if o.MaxRelErr > d.MaxRelErr {
		d.MaxRelErr = o.MaxRelErr
	}
	if o.MaxAbsErr > d.MaxAbsErr {
		d.MaxAbsErr = o.MaxAbsErr
	}
	d.Compared += o.Compared
}

// Within returns nil when the measured envelope fits the given bounds.
func (d Divergence) Within(maxULP int64, maxRelErr float64) error {
	if d.MaxULP > maxULP {
		return fmt.Errorf("tensor: divergence max ULP %d exceeds bound %d", d.MaxULP, maxULP)
	}
	if d.MaxRelErr > maxRelErr {
		return fmt.Errorf("tensor: divergence max rel err %.3g exceeds bound %.3g", d.MaxRelErr, maxRelErr)
	}
	return nil
}
