// Package loadgen is the repository's one load driver. Run executes requests
// on a fixed set of workers and records what they cost into internal/obs
// log-linear histograms; *when* a request is issued is the arrival policy's
// decision, and there are two kinds.
//
// Open loop (ConstantRate, Poisson): simulated clients issue transactions on
// an arrival schedule fixed before the run starts, independent of completion,
// and latency is recorded from each request's *intended* send time. The
// distinction matters for tails. A closed-loop generator issues the next
// request only after the previous one completes, so an engine stall stops the
// generator too: the stall is charged to one request and the thousands it
// delayed are silently never issued (coordinated omission). On a schedule,
// when the system falls behind, every delayed request's latency includes the
// time it spent waiting for its turn, because the clock for request i starts
// at its scheduled offset, not at the moment a worker got around to sending
// it. A 500 ms stall at 2000 req/s therefore surfaces as ~1000 samples spread
// over 0–500 ms instead of one 500 ms outlier (see TestOmissionSafety).
//
// Closed loop (ClosedLoop): callers that each wait for a reply — the paper's
// worker threads, which is how its figures measure throughput. A worker's
// next request is due when its previous one returned; the run is counted (a
// number of requests per worker) or timed.
//
// Which histogram to read. Result.Latency is time since the intended send: it
// is the one an open-loop run is judged and gated on, and it is empty under
// ClosedLoop, where nothing was ever late. Result.Service is time since the
// actual send: it is the latency of a closed-loop run, and on a schedule only
// the part of Latency that was not queueing.
package loadgen

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// Arrival is an arrival policy: it decides when each request of a run is due.
// The policies are this package's ConstantRate, Poisson and ClosedLoop.
type Arrival interface {
	// Name identifies the policy in run summaries and SLO records.
	Name() string
	// plan fixes one run's arrivals. It returns how many it scheduled
	// (negative: as many as the workers get through) and the function that
	// gives each worker of a driver the claim it calls for its next request.
	plan(cfg Config, start time.Time) (offered int, claimer func(driver int) claim)
}

// claim hands a worker its next request: when it is due — the zero time means
// at once, with no intended send time to be late against — and whether there
// is one.
type claim func() (due time.Time, ok bool)

// planSchedule serves a precomputed schedule of offsets from the run's start,
// interleaved round-robin across drivers so each driver sees the full run
// duration at rate/Drivers: driver d's k-th claim is global slot k*Drivers+d.
// Claiming is a single atomic, and slots within a driver are issued in
// intended-time order. Schedules are precomputed so saturation cannot push
// arrivals later — the whole point of the open loop.
func planSchedule(sched []time.Duration, cfg Config, start time.Time) (int, func(int) claim) {
	nexts := make([]atomic.Int64, cfg.Drivers) // a driver's workers share one
	return len(sched), func(d int) claim {
		next := &nexts[d]
		return func() (time.Time, bool) {
			slot := int(next.Add(1)-1)*cfg.Drivers + d
			if slot >= len(sched) {
				return time.Time{}, false
			}
			return start.Add(sched[slot]), true
		}
	}
}

// ClosedLoop issues a worker's next request when its previous one returns.
// With Ops > 0 every worker issues exactly Ops requests (a counted run);
// otherwise workers issue until Config.Duration has passed since the start (a
// timed run, which ends when the request in flight at that moment returns).
type ClosedLoop struct {
	Ops int
}

// Name identifies the policy in run summaries.
func (ClosedLoop) Name() string { return "closed" }

func (c ClosedLoop) plan(cfg Config, start time.Time) (int, func(int) claim) {
	if c.Ops > 0 {
		return -1, func(int) claim {
			left := c.Ops // the budget is the worker's own
			return func() (time.Time, bool) { left--; return time.Time{}, left >= 0 }
		}
	}
	// A flag a timer sets, not a clock read per claim: the requests a figure
	// drives this way take well under a microsecond.
	over := &atomic.Bool{}
	over.Store(cfg.Duration <= 0)
	time.AfterFunc(time.Until(start.Add(cfg.Duration)), func() { over.Store(true) })
	return -1, func(int) claim {
		return func() (time.Time, bool) { return time.Time{}, !over.Load() }
	}
}

// ConstantRate spaces arrivals exactly 1/rate apart: the deterministic
// schedule used for drift bounds and regression gates.
type ConstantRate struct{}

// Name identifies the process in run summaries and SLO records.
func (ConstantRate) Name() string { return "const" }

func (a ConstantRate) plan(cfg Config, start time.Time) (int, func(int) claim) {
	return planSchedule(a.Schedule(cfg.Rate, cfg.Duration, cfg.Seed), cfg, start)
}

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

func (a Poisson) plan(cfg Config, start time.Time) (int, func(int) claim) {
	return planSchedule(a.Schedule(cfg.Rate, cfg.Duration, cfg.Seed), cfg, start)
}

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
