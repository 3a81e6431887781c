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
	cfg := Config{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: 0, Seed: 1}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := Backoff(i+1, cfg); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	cfg := Config{Base: 100 * time.Millisecond, Max: time.Second, Jitter: 0.2, Seed: 9}
	for attempt := 1; attempt <= 4; attempt++ {
		a, b := Backoff(attempt, cfg), Backoff(attempt, cfg)
		if a != b {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", attempt, a, b)
		}
		base := Backoff(attempt, Config{Base: cfg.Base, Max: cfg.Max, Jitter: 0, Seed: cfg.Seed})
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		if a < lo || a > hi {
			t.Errorf("attempt %d: %v outside [%v, %v]", attempt, a, lo, hi)
		}
	}
	if Backoff(3, cfg) == Backoff(3, Config{Base: cfg.Base, Max: cfg.Max, Jitter: 0.2, Seed: 10}) {
		t.Error("different seeds produced identical jitter")
	}
}
