// Package retry is the retry/backoff helper for transient-failure paths:
// checkpoint IO retries torn writes and flaky reads through Do. The
// backoff is exponential and unjittered, so every run sees the same
// schedule.
package retry

import (
	"context"
	"errors"
	"time"
)

// maxSleep caps a single backoff sleep.
const maxSleep = time.Second

// Config tunes one retry loop. The zero value is usable: 3 attempts and a
// 10ms base.
type Config struct {
	// Attempts is the maximum number of tries, including the first.
	Attempts int
	// Base is the sleep after the first failure; attempt k sleeps
	// Base·2^(k-1), capped at maxSleep.
	Base time.Duration
	// Sleep overrides the sleeper (tests); nil uses a context-aware wait
	// on a real timer.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.Base <= 0 {
		c.Base = 10 * time.Millisecond
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent marks err as not worth retrying: Do returns the wrapped error
// immediately. Use it for deterministic failures (corrupt data, invalid
// input) inside otherwise-transient operations.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// backoff returns the sleep before retry number attempt (attempt 1 is the
// sleep after the first failure): base·2^(attempt−1), capped at maxSleep.
func backoff(attempt int, base time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < maxSleep; i++ {
		d *= 2
	}
	return min(d, maxSleep)
}

// Do runs fn up to cfg.Attempts times, sleeping backoff(k) between tries,
// until fn returns nil, a Permanent error, or the context is done. The
// returned error is fn's last error (unwrapped from Permanent); if the
// context expired first, it is joined with the context error.
func Do(ctx context.Context, cfg Config, fn func() error) error {
	cfg = cfg.withDefaults()
	var last error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return errors.Join(err, last)
		}
		err := fn()
		if err == nil {
			return nil
		}
		var p *permanentError
		if errors.As(err, &p) {
			return p.err
		}
		last = err
		if attempt >= cfg.Attempts {
			return last
		}
		if err := cfg.Sleep(ctx, backoff(attempt, cfg.Base)); err != nil {
			return errors.Join(err, last)
		}
	}
}
