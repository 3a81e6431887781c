// Package load generates the deterministic open-loop arrival process the
// benchmark paces its requests by: Poisson arrivals over a sequence of
// fixed-rate phases, bit-identical for a fixed seed.
//
// Open loop means arrivals are scheduled by the clock, not by responses: a
// slow server does not throttle the generator, it accumulates queueing.
package load

import (
	"fmt"
	"math/rand"
	"time"
)

// Phase is one segment of an offered-rate ramp: hold Rate arrivals/second
// for Duration.
type Phase struct {
	Name     string
	Rate     float64 // offered arrivals per second; must be > 0
	Duration time.Duration
}

// Arrival is one scheduled request: an offset from the run's start and the
// phase it belongs to.
type Arrival struct {
	At    time.Duration
	Phase int
}

// Schedule materialises the deterministic open-loop arrival process for a
// sequence of phases: within each phase, interarrival gaps are exponential
// with mean 1/Rate (a Poisson process — the memoryless arrivals of
// aggregated independent clients), drawn from a generator seeded with
// seed, so a fixed seed yields a bit-identical arrival timeline on every
// run. Phase boundaries are hard: the first arrival of phase k+1 restarts
// the exponential clock at the boundary, so each phase's offered rate is
// exactly its own.
func Schedule(seed int64, phases []Phase) ([]Arrival, error) {
	for i, ph := range phases {
		if ph.Rate <= 0 {
			return nil, fmt.Errorf("load: phase %d (%q) rate %v must be > 0", i, ph.Name, ph.Rate)
		}
		if ph.Duration <= 0 {
			return nil, fmt.Errorf("load: phase %d (%q) duration %v must be > 0", i, ph.Name, ph.Duration)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var arrivals []Arrival
	base := time.Duration(0)
	for pi, ph := range phases {
		// Exponential interarrivals accumulated in float seconds; the first
		// gap starts at the phase boundary.
		elapsed := 0.0
		limit := ph.Duration.Seconds()
		for {
			elapsed += rng.ExpFloat64() / ph.Rate
			if elapsed >= limit {
				break
			}
			arrivals = append(arrivals, Arrival{
				At:    base + time.Duration(elapsed*float64(time.Second)),
				Phase: pi,
			})
		}
		base += ph.Duration
	}
	return arrivals, nil
}
