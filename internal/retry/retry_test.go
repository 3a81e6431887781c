package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeSleep records requested sleeps without waiting.
func fakeSleep(log *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*log = append(*log, d)
		return ctx.Err()
	}
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	var sleeps []time.Duration
	calls := 0
	err := Do(context.Background(), Config{Attempts: 5, Sleep: fakeSleep(&sleeps)}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if len(sleeps) != 2 {
		t.Fatalf("slept %d times, want 2", len(sleeps))
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	var sleeps []time.Duration
	boom := errors.New("boom")
	calls := 0
	err := Do(context.Background(), Config{Attempts: 3, Sleep: fakeSleep(&sleeps)}, func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 3 || len(sleeps) != 2 {
		t.Fatalf("err=%v calls=%d sleeps=%d", err, calls, len(sleeps))
	}
}

func TestPermanentStopsImmediately(t *testing.T) {
	deep := errors.New("corrupt")
	calls := 0
	err := Do(context.Background(), Config{Attempts: 5}, func() error {
		calls++
		return Permanent(deep)
	})
	if err != deep || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
}

func TestDoRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	calls := 0
	err := Do(ctx, Config{Attempts: 10, Sleep: func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}}, func() error {
		calls++
		return boom
	})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want canceled joined with boom", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestBackoffCurve(t *testing.T) {
	base := 100 * time.Millisecond
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, maxSleep, maxSleep,
	}
	for i, w := range want {
		if got := backoff(i+1, base); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestDoSleepsTheBackoffCurve pins the sleeps Do hands its sleeper to the
// backoff curve at the configured base, and the zero Base to 10ms.
func TestDoSleepsTheBackoffCurve(t *testing.T) {
	for _, tc := range []struct {
		base time.Duration
		want []time.Duration
	}{
		{5 * time.Millisecond, []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}},
		{0, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}},
	} {
		var sleeps []time.Duration
		cfg := Config{Attempts: 4, Base: tc.base, Sleep: fakeSleep(&sleeps)}
		Do(context.Background(), cfg, func() error { return errors.New("transient") })
		if len(sleeps) != len(tc.want) {
			t.Fatalf("base %v: slept %v, want %v", tc.base, sleeps, tc.want)
		}
		for i := range sleeps {
			if sleeps[i] != tc.want[i] {
				t.Errorf("base %v: slept %v, want %v", tc.base, sleeps, tc.want)
				break
			}
		}
	}
}
