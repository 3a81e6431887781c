// Package faults is a deterministic, seedable fault-injection registry
// for chaos testing the serving and training harnesses. Hot paths declare
// named injection points (Inject calls); a test or operator enables a Plan
// that arms some of those points with a probability, a budget, and an
// action — return a typed error, panic, or delay. Disabled (the default),
// Inject is a single atomic load and nil check, so production binaries pay
// nothing for carrying the hooks.
//
// Determinism: whether a point fires on its k-th hit is a pure function of
// (plan seed, point name, k) — a splitmix-style hash, not a shared RNG —
// so each point's fire pattern is reproducible under a fixed seed even
// when goroutines interleave hits across different points. Only the
// per-point hit ordering matters, and each point counts its own hits
// under the registry lock.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registered injection-point names. Keeping them in one place doubles as
// the catalog the chaos harness arms (see Names).
const (
	// ServeCacheGet fires on path-representation cache lookups; an
	// injected error forces a miss (degraded to recompute, never fatal).
	ServeCacheGet = "serve.cache.get"
	// ServeCachePut fires on cache inserts; an injected error skips the
	// insert (the entry is recomputed next time).
	ServeCachePut = "serve.cache.put"
	// ServePrepare fires inside MEGA preprocessing on the serving path;
	// an injected error fails that request and counts in
	// prepare_failures.
	ServePrepare = "serve.prepare"
	// ServeDispatch fires at batch dispatch on the worker, outside the
	// forward recover — a panic here exercises worker replacement.
	ServeDispatch = "serve.dispatch"
	// ServeForward fires inside the guarded forward pass — a panic here
	// exercises the per-batch recover.
	ServeForward = "serve.forward"
	// TrainCkptSave fires mid-checkpoint-write, after partial bytes hit
	// the temp file and before the atomic rename.
	TrainCkptSave = "train.ckpt.save"
	// TrainCkptLoad fires on checkpoint reads, before parsing.
	TrainCkptLoad = "train.ckpt.load"
)

// Names lists every registered injection point, sorted.
func Names() []string {
	return []string{
		ServeCacheGet, ServeCachePut, ServePrepare, ServeDispatch,
		ServeForward, TrainCkptSave, TrainCkptLoad,
	}
}

// Action is what an armed point does when it fires.
type Action int

const (
	// ActError returns an *Error from Inject.
	ActError Action = iota
	// ActPanic panics with an *Error value.
	ActPanic
	// ActDelay sleeps for the configured Delay, then returns nil.
	ActDelay
)

func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActDelay:
		return "delay"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// PointConfig arms one injection point.
type PointConfig struct {
	// Name is the injection-point name (one of the registered constants;
	// arming an unknown name is allowed and simply never hit).
	Name string
	// Prob is the per-hit fire probability in [0, 1].
	Prob float64
	// Budget caps total fires for this point; 0 means unlimited.
	Budget int
	// Action selects error, panic, or delay (default ActError).
	Action Action
	// Delay is the sleep for ActDelay.
	Delay time.Duration
}

// Plan is a full injection configuration: a seed and the armed points.
type Plan struct {
	Seed   int64
	Points []PointConfig
}

// Error is the typed error for injected failures, both returned (ActError)
// and used as the panic value (ActPanic).
type Error struct {
	// Point names the injection point that fired.
	Point string
	// Panicked distinguishes the panic action in messages.
	Panicked bool
}

func (e *Error) Error() string {
	if e.Panicked {
		return fmt.Sprintf("faults: injected panic at %s", e.Point)
	}
	return fmt.Sprintf("faults: injected error at %s", e.Point)
}

// errInjected anchors errors.Is across all injected errors.
var errInjected = errors.New("faults: injected")

// Is makes errors.Is(err, faults.Injected()) match any injected error.
func (e *Error) Is(target error) bool { return target == errInjected }

// Injected returns the sentinel matched by every injected error, for
// errors.Is checks that don't care which point fired.
func Injected() error { return errInjected }

// IsInjected reports whether err (or its chain) was produced by Inject.
func IsInjected(err error) bool { return errors.Is(err, errInjected) }

type point struct {
	cfg   PointConfig
	hits  int // Inject calls that consulted this point
	fired int // times the action actually ran
}

type registry struct {
	seed   int64
	mu     sync.Mutex
	points map[string]*point
}

// active is nil when injection is disabled — the zero-cost fast path.
var active atomic.Pointer[registry]

// Enable installs plan, replacing any previous plan and resetting all
// counters.
func Enable(plan Plan) {
	r := &registry{seed: plan.Seed, points: make(map[string]*point, len(plan.Points))}
	for _, cfg := range plan.Points {
		r.points[cfg.Name] = &point{cfg: cfg}
	}
	active.Store(r)
}

// Disable turns injection off. Counters from the previous plan are
// discarded; snapshot with Report before disabling if they matter.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is installed.
func Enabled() bool { return active.Load() != nil }

// Inject is the hot-path hook: a nil-check when disabled, otherwise the
// armed point's decision for this hit. It returns an *Error, panics with
// an *Error, sleeps, or returns nil.
func Inject(name string) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.inject(name)
}

func (r *registry) inject(name string) error {
	r.mu.Lock()
	p, ok := r.points[name]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	hit := p.hits
	p.hits++
	fire := p.cfg.Prob > 0 &&
		(p.cfg.Budget == 0 || p.fired < p.cfg.Budget) &&
		decide(r.seed, name, hit, p.cfg.Prob)
	if fire {
		p.fired++
	}
	cfg := p.cfg
	r.mu.Unlock()
	if !fire {
		return nil
	}
	switch cfg.Action {
	case ActPanic:
		panic(&Error{Point: name, Panicked: true})
	case ActDelay:
		time.Sleep(cfg.Delay)
		return nil
	default:
		return &Error{Point: name}
	}
}

// decide maps (seed, name, hit index) to a fire decision with probability
// prob — a pure function, so each point's pattern is reproducible
// regardless of how goroutines interleave hits across points.
func decide(seed int64, name string, hit int, prob float64) bool {
	if prob >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, name, hit)
	x := h.Sum64()
	// splitmix64 finalizer for avalanche over the fnv output.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < prob
}

// PointReport is one point's counters.
type PointReport struct {
	Name  string `json:"name"`
	Hits  int    `json:"hits"`
	Fired int    `json:"fired"`
}

// Report snapshots hit/fire counters for every armed point, sorted by
// name. Empty when injection is disabled.
func Report() []PointReport {
	r := active.Load()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PointReport, 0, len(r.points))
	for name, p := range r.points {
		out = append(out, PointReport{Name: name, Hits: p.hits, Fired: p.fired})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteReport writes the coverage log — one "name hits fired" line per
// armed point — in a stable order (the CI chaos job uploads this).
func WriteReport(w io.Writer) error {
	for _, p := range Report() {
		if _, err := fmt.Fprintf(w, "%s hits=%d fired=%d\n", p.Name, p.Hits, p.Fired); err != nil {
			return err
		}
	}
	return nil
}
