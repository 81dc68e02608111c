// Package loadgen is the open-loop load harness: simulated clients issue
// transactions on a fixed arrival schedule — constant-rate or Poisson —
// independent of completion, and latency is recorded from each request's
// *intended* send time into internal/obs log-linear histograms.
//
// The distinction matters for tails. A closed-loop generator issues the next
// request only after the previous one completes, so an engine stall stops
// the generator too: the stall is charged to one request and the thousands
// it delayed are silently never issued (coordinated omission). Here the
// schedule is fixed before the run starts; when the system falls behind,
// every delayed request's latency includes the time it spent waiting for its
// turn, because the clock for request i starts at its scheduled offset, not
// at the moment a worker got around to sending it. A 500 ms stall at 2000
// req/s therefore surfaces as ~1000 samples spread over 0–500 ms instead of
// one 500 ms outlier (see TestOmissionSafety).
package loadgen

import (
	"math/rand"
	"time"
)

// Arrival generates the intended-send schedule for one run: the offsets from
// run start, in nanoseconds, at which each request is due. Schedules are
// precomputed so saturation cannot push arrivals later — the whole point of
// the open loop.
type Arrival interface {
	Name() string
	// Schedule returns every arrival in [0, duration) at the target
	// aggregate rate (requests/second), sorted ascending. seed makes
	// stochastic processes reproducible.
	Schedule(rate float64, duration time.Duration, seed int64) []time.Duration
}

// ConstantRate spaces arrivals exactly 1/rate apart: the deterministic
// schedule used for drift bounds and regression gates.
type ConstantRate struct{}

// Name identifies the process in run summaries and SLO records.
func (ConstantRate) Name() string { return "const" }

// Schedule returns ⌊rate·duration⌋ evenly spaced offsets.
func (ConstantRate) Schedule(rate float64, duration time.Duration, seed int64) []time.Duration {
	if rate <= 0 || duration <= 0 {
		return nil
	}
	n := int(rate * duration.Seconds())
	interval := float64(time.Second) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) * interval)
	}
	return out
}

// Poisson draws i.i.d. exponential inter-arrivals (a homogeneous Poisson
// process): the memoryless arrivals of a large independent client
// population, which exercise burst behaviour a constant schedule cannot.
type Poisson struct{}

// Name identifies the process in run summaries and SLO records.
func (Poisson) Name() string { return "poisson" }

// Schedule accumulates Exp(rate) gaps until duration is exhausted.
func (Poisson) Schedule(rate float64, duration time.Duration, seed int64) []time.Duration {
	if rate <= 0 || duration <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	mean := float64(time.Second) / rate
	out := make([]time.Duration, 0, int(rate*duration.Seconds())+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() * mean
		d := time.Duration(t)
		if d >= duration {
			return out
		}
		out = append(out, d)
	}
}
