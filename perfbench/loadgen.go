package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

// outcome is one request's fate as the generator saw it.
type outcome struct {
	Latency time.Duration // from the time the request was due to its completion
	Lag     time.Duration // how late the generator handed it to a connection's queue
	Failed  bool          // an error, a refusal, or a partial/degraded answer
}

// step is one fixed-rate phase of the open-loop generator.
type step struct {
	Rate     float64 // offered requests per second
	Achieved float64 // completed requests per second over the phase
	Out      []outcome
	Backlog  int // requests due but not yet started when the phase's last one fell due
}

// runStep issues n = rate × dur requests on a fixed schedule — request i is
// due at start + i/rate whatever happened to earlier ones (an open loop,
// so a stall cannot hide its cost) — over conns connections. do(ctx, i)
// performs request i. Latency is timed from the due time, so time spent
// queued behind busy connections counts. Requests still unfinished drain
// seconds after the last one fell due are cancelled and count as failed.
// Closing stop ends the phase early: requests not yet due are dropped.
func runStep(ctx context.Context, rate float64, dur time.Duration, conns int, drain time.Duration, stop <-chan struct{}, do func(ctx context.Context, i int) error) step {
	n := int(math.Round(rate * dur.Seconds()))
	if n < 1 {
		n = 1
	}
	out := make([]outcome, n) // workers fill distinct elements
	sent := n
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type job struct {
		i   int
		due time.Time
	}
	queue := make(chan job, n) // sized to the number of sends: the dispatcher never blocks
	start := time.Now()
	var last time.Time
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				err := ctx.Err()
				if err == nil {
					err = do(ctx, j.i)
				}
				now := time.Now()
				out[j.i].Latency = now.Sub(j.due)
				out[j.i].Failed = err != nil
				mu.Lock()
				if now.After(last) {
					last = now
				}
				mu.Unlock()
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-stop:
				timer.Stop()
				sent = i
				break dispatch
			}
		}
		out[i].Lag = time.Since(due)
		queue <- job{i, due}
	}
	st := step{Rate: rate, Out: out[:sent], Backlog: len(queue)}
	close(queue)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drain):
		cancel()
		<-done
	}
	ok := 0
	for _, o := range st.Out {
		if !o.Failed {
			ok++
		}
	}
	if span := last.Sub(start).Seconds(); span > 0 {
		st.Achieved = float64(ok) / span
	}
	return st
}

// latenciesMS returns the phase's latencies in milliseconds, ascending; a
// failed request counts as slower than any limit (+Inf).
func (s step) latenciesMS() []float64 {
	out := make([]float64, len(s.Out))
	for i, o := range s.Out {
		if o.Failed {
			out[i] = math.Inf(1)
		} else {
			out[i] = float64(o.Latency) / float64(time.Millisecond)
		}
	}
	sort.Float64s(out)
	return out
}

func (s step) failures() int {
	n := 0
	for _, o := range s.Out {
		if o.Failed {
			n++
		}
	}
	return n
}

func (s step) lagsMS() []float64 {
	out := make([]float64, len(s.Out))
	for i, o := range s.Out {
		out[i] = float64(o.Lag) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// meetsSLO is the ladder's pass rule: p99 (taken slice-wise, see
// slicedP99) within the limit, at most 1% of requests failed, and no
// growing backlog — when the phase's last request fell due, at most 2% of
// its requests (plus one per connection) were still waiting for a
// connection.
func (s step) meetsSLO(limitMS float64, conns int) bool {
	return s.slicedP99() <= limitMS &&
		float64(s.failures()) <= 0.01*float64(len(s.Out)) &&
		float64(s.Backlog) <= 0.02*float64(len(s.Out))+float64(conns)
}

// sliceSamples is the fewest requests a slice of slicedP99 holds: enough
// for five beyond its p99.
const sliceSamples = 500

// slicedP99 is the phase's p99 taken robustly: the requests are cut, in
// due order, into up to five equal slices of at least sliceSamples each,
// and the median of the slices' p99s is returned. One slow second of the
// host (a noisy neighbour) then moves one slice, not the result; a stall
// the system causes throughout the phase moves every slice.
func (s step) slicedP99() float64 {
	k := min(5, max(1, len(s.Out)/sliceSamples))
	var p99s []float64
	for i := 0; i < k; i++ {
		part := step{Out: s.Out[i*len(s.Out)/k : (i+1)*len(s.Out)/k]}
		p99s = append(p99s, quantile(part.latenciesMS(), 0.99))
	}
	return median(p99s)
}

// quantile of an ascending slice, linearly interpolated.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	if math.IsInf(sorted[hi], 1) {
		return math.Inf(1)
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
