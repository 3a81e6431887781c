// Package retry is the shared retry/backoff helper for transient-failure
// paths: checkpoint IO retries torn writes and flaky reads, and the serve
// circuit breaker spaces its re-open probes with the same backoff curve.
// Backoff is exponential with deterministic jitter — jitter comes from a
// hash of (seed, attempt), not a global RNG, so tests under a fixed seed
// see the same schedule every run.
package retry

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// Config tunes one retry loop. The zero value is usable: 3 attempts,
// 10ms base, 1s cap, 20% jitter, seed 1.
type Config struct {
	// Attempts is the maximum number of tries, including the first.
	Attempts int
	// Base is the sleep after the first failure; attempt k sleeps
	// Base·2^(k-1), capped at Max.
	Base time.Duration
	// Max caps a single backoff sleep.
	Max time.Duration
	// Jitter widens each sleep to [1−j, 1+j]·backoff, j in [0, 1).
	Jitter float64
	// Seed makes the jitter sequence deterministic.
	Seed int64
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
	if c.Max <= 0 {
		c.Max = time.Second
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		c.Jitter = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
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

// Backoff returns the sleep before retry number attempt (attempt 1 is the
// sleep after the first failure): exponential from cfg.Base, capped at
// cfg.Max, with deterministic jitter from cfg.Seed. Exported for callers
// that pace themselves (the breaker's successive open windows) rather
// than looping through Do.
func Backoff(attempt int, cfg Config) time.Duration {
	cfg = cfg.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := cfg.Base
	for i := 1; i < attempt && d < cfg.Max; i++ {
		d *= 2
	}
	if d > cfg.Max {
		d = cfg.Max
	}
	if cfg.Jitter > 0 {
		// u in [0,1) from a hash of (seed, attempt): deterministic, yet
		// spread across attempts.
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d", cfg.Seed, attempt)
		u := float64(h.Sum64()>>11) / float64(1<<53)
		scale := 1 + cfg.Jitter*(2*u-1)
		d = time.Duration(float64(d) * scale)
		if d < time.Nanosecond {
			d = time.Nanosecond
		}
	}
	return d
}

// Do runs fn up to cfg.Attempts times, sleeping Backoff(k) between tries,
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
		if err := cfg.Sleep(ctx, Backoff(attempt, cfg)); err != nil {
			return errors.Join(err, last)
		}
	}
}
