package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark owns its load runner because load.Run times a request from
// dispatch: when the pacer stalls, the requests it delays are sent late and
// timed short, and the queueing they would have seen disappears. Here an
// open-loop request is timed from the instant it was due.

type opKind uint8

const (
	opPredict opKind = iota
	opUpdate
)

// arrival is one scheduled open-loop request.
type arrival struct {
	at   time.Duration // due time, as an offset from the phase start
	kind opKind
	idx  int // index into the kind's own request list
}

// sample is one finished request.
type sample struct {
	kind opKind
	idx  int
	// latency runs from the due time (open loop) or the send (closed loop)
	// to the response.
	latency time.Duration
	status  int
	resp    []byte
}

// doFunc sends request idx of a kind and returns the status and body.
type doFunc func(kind opKind, idx int) (status int, resp []byte)

// pacer runs open-loop phases. sleep is time.Sleep outside tests, which
// substitute a stalling one to show a generator stall reaches the latencies.
type pacer struct {
	sleep func(time.Duration)
}

// openLoop sends every arrival at its due time regardless of responses and
// returns one sample per arrival plus the worst lateness of a dispatch.
func (p pacer) openLoop(arrivals []arrival, do doFunc) (samples []sample, lagMax time.Duration) {
	samples = make([]sample, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		if d := a.at - time.Since(start); d > 0 {
			p.sleep(d)
		}
		if lag := time.Since(start) - a.at; lag > lagMax {
			lagMax = lag
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			status, resp := do(a.kind, a.idx)
			samples[i] = sample{kind: a.kind, idx: a.idx, latency: time.Since(start) - a.at, status: status, resp: resp}
		}(i, a)
	}
	wg.Wait()
	return samples, lagMax
}

// closedLoop runs clients callers that each send the next unsent request of
// kind as soon as their previous one returns, for dur or until n requests
// are used up. It returns the samples and the time they took.
func closedLoop(clients int, dur time.Duration, kind opKind, n int, do doFunc) ([]sample, time.Duration) {
	per := make([][]sample, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				status, resp := do(kind, i)
				per[c] = append(per[c], sample{kind: kind, idx: i, latency: time.Since(t0), status: status, resp: resp})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// memWriter is the in-memory http.ResponseWriter requests are served into:
// the whole handler runs (decode, validate, prepare, queue, forward,
// encode) and no socket is involved.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// post serves one pre-marshalled POST through h.
func post(h http.Handler, path string, body []byte) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // path is a constant of this package
	}
	w := &memWriter{header: make(http.Header), status: http.StatusOK}
	h.ServeHTTP(w, req)
	return w.status, w.body.Bytes()
}

// percentile returns the q-quantile of sorted by the nearest-rank rule (the
// ⌈q·n⌉-th smallest value). It refuses a quantile with fewer than ten
// samples beyond it: that far out a single slow request moves the figure.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= 10", q*100, n, n-rank)
	}
	return sorted[rank-1], nil
}

// median is the plain middle value, for the few-sample series (epochs,
// repeated set-ups, probe chunks) that support no other quantile.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latenciesMs extracts the sorted latencies of one kind.
func latenciesMs(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind {
			out = append(out, ms(s.latency))
		}
	}
	sort.Float64s(out)
	return out
}
