package load

import (
	"math"
	"testing"
	"time"
)

// TestScheduleDeterministic pins the open-loop generator's core contract:
// a fixed seed yields a bit-identical arrival timeline, and a different
// seed yields a different one.
func TestScheduleDeterministic(t *testing.T) {
	phases := []Phase{
		{Name: "warm", Rate: 100, Duration: 2 * time.Second},
		{Name: "peak", Rate: 400, Duration: 3 * time.Second},
	}
	a, err := Schedule(42, phases)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(42, phases)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different arrival counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, err := Schedule(43, phases)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
}

// TestScheduleOfferedRate checks the realised rate of the synthetic
// timeline (no wall clock involved): over a long window the Poisson
// process must offer within 1% of the configured rate, and interarrival
// gaps must have the exponential distribution's mean.
func TestScheduleOfferedRate(t *testing.T) {
	cases := []struct {
		rate float64
		dur  time.Duration
	}{
		{1000, 200 * time.Second},
		{2000, 100 * time.Second},
		{250, 800 * time.Second},
	}
	for _, tc := range cases {
		arr, err := Schedule(7, []Phase{{Name: "p", Rate: tc.rate, Duration: tc.dur}})
		if err != nil {
			t.Fatal(err)
		}
		offered := float64(len(arr)) / tc.dur.Seconds()
		if rel := math.Abs(offered-tc.rate) / tc.rate; rel > 0.01 {
			t.Errorf("rate %.0f over %v: offered %.1f (%.2f%% off, want <=1%%)",
				tc.rate, tc.dur, offered, rel*100)
		}
		// Mean interarrival gap ≈ 1/rate (same tolerance).
		gaps := 0.0
		for i := 1; i < len(arr); i++ {
			gaps += (arr[i].At - arr[i-1].At).Seconds()
		}
		meanGap := gaps / float64(len(arr)-1)
		if rel := math.Abs(meanGap-1/tc.rate) / (1 / tc.rate); rel > 0.01 {
			t.Errorf("rate %.0f: mean gap %.6fs, want ~%.6fs", tc.rate, meanGap, 1/tc.rate)
		}
	}
}

// TestSchedulePhaseBoundaries pins that arrivals are sorted, stay inside
// their phase's window, and carry the right phase index — phase rates must
// not bleed into each other.
func TestSchedulePhaseBoundaries(t *testing.T) {
	phases := []Phase{
		{Name: "low", Rate: 50, Duration: 4 * time.Second},
		{Name: "high", Rate: 800, Duration: 2 * time.Second},
		{Name: "low2", Rate: 50, Duration: 4 * time.Second},
	}
	arr, err := Schedule(3, phases)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []time.Duration{0, 4 * time.Second, 6 * time.Second, 10 * time.Second}
	counts := make([]int, len(phases))
	for i, a := range arr {
		if i > 0 && a.At < arr[i-1].At {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a.At, i-1, arr[i-1].At)
		}
		if a.Phase < 0 || a.Phase >= len(phases) {
			t.Fatalf("arrival %d has phase %d", i, a.Phase)
		}
		if a.At < bounds[a.Phase] || a.At >= bounds[a.Phase+1] {
			t.Fatalf("arrival %d at %v outside phase %d window [%v, %v)",
				i, a.At, a.Phase, bounds[a.Phase], bounds[a.Phase+1])
		}
		counts[a.Phase]++
	}
	// Each phase's own offered rate holds to the statistical tolerance of
	// its sample size (5 sigma).
	for i, ph := range phases {
		want := ph.Rate * ph.Duration.Seconds()
		if sigma := math.Sqrt(want); math.Abs(float64(counts[i])-want) > 5*sigma {
			t.Errorf("phase %d: %d arrivals, want %.0f +- %.0f", i, counts[i], want, 5*sigma)
		}
	}
}

func TestScheduleRejectsBadPhases(t *testing.T) {
	for _, phases := range [][]Phase{
		{{Rate: 0, Duration: time.Second}},
		{{Rate: -5, Duration: time.Second}},
		{{Rate: 100, Duration: 0}},
		{{Rate: 100, Duration: -time.Second}},
		{{Rate: 100, Duration: time.Second}, {Rate: 0, Duration: time.Second}},
	} {
		if _, err := Schedule(1, phases); err == nil {
			t.Errorf("Schedule(%+v) = nil error, want rejection", phases)
		}
	}
}
