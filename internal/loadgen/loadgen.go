package loadgen

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/bench"
	"zeus/internal/obs"
)

// Config shapes one run.
type Config struct {
	// Rate is the aggregate target arrival rate (requests/second) across
	// all drivers. ClosedLoop ignores it.
	Rate float64
	// Arrival is the arrival policy (default ConstantRate).
	Arrival Arrival
	// Duration is the schedule horizon: arrivals land in [0, Duration), and
	// the run itself lasts until the last request completes. Under a timed
	// ClosedLoop it is how long workers keep issuing.
	Duration time.Duration
	// Drivers partitions the load into independent driver groups, each with
	// its own workers — the multi-core runner mode. Defaults to
	// max(GOMAXPROCS, 1). Open-loop experiments round it up to a multiple of
	// the node count so every node is driven; closed-loop ones use one driver
	// per node, so that what Result reports per driver is per node.
	Drivers int
	// WorkersPerDriver bounds each driver's in-flight requests (default 4).
	// On a schedule, further arrivals queue when all workers are busy — and
	// their queueing delay is charged to them, because their clocks started
	// at their scheduled offsets.
	WorkersPerDriver int
	// Interval, when positive, samples the per-driver completions every
	// Interval into Result.Samples (the Figure 10/11 timelines).
	Interval time.Duration
	// Seed makes schedules and workload choices reproducible.
	Seed int64
}

// Result is one run's measurement.
type Result struct {
	Arrival   string
	Offered   int    // scheduled arrivals; under ClosedLoop, requests issued
	Completed uint64 // requests that returned nil
	Errors    uint64 // requests that returned an error (after dbapi retries)
	Elapsed   time.Duration
	Drivers   int

	// PerDriver is Completed by driver; Samples, with Config.Interval, is the
	// same count per whole interval elapsed (a row per interval, a column
	// per driver; completions after the last whole interval are in no row).
	PerDriver []uint64
	Samples   [][]uint64

	// Latency is the coordinated-omission-safe histogram: every request
	// recorded from its intended send time, errors included (an errored
	// request still occupied its slot). Empty under ClosedLoop, where no
	// request has an intended time.
	Latency obs.HistSnapshot
	// Service is the same population recorded from the *actual* send time:
	// what a request cost once a worker got to it. It is the latency of a
	// closed-loop run; on a schedule it exists for the omission-safety
	// regression test and the run summary's "how much tail was queueing"
	// decomposition — never gate an open-loop run on it.
	Service obs.HistSnapshot
}

// Throughput returns completed requests per second of elapsed run time.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// startLead is how far in the future the run's origin is placed, so the
// first arrivals are not already late before the workers have spun up.
const startLead = 2 * time.Millisecond

// worker is one worker's own record of its run. Nothing in it is written by
// another goroutine: the requests of one run land in a handful of histogram
// buckets, and workers sharing them — or a counter — would spend a
// sub-microsecond request's time waiting for the cache line.
type worker struct {
	lat, svc  obs.Histogram
	completed atomic.Uint64 // the sampler reads it mid-run
	errors    uint64
}

// Run drives the load Config describes. makeOp is called once per driver
// (drivers bound to different nodes return ops against different DBs); the
// returned op runs on the driver's workers, each with a private rng.
//
// Every worker runs one loop whatever the policy: claim the next request from
// the arrival policy, sleep until it is due if early, execute, record. On a
// schedule workers claim slots in order within their driver, so if the system
// is saturated or stalled, slots are claimed late and the backlog delay lands
// in the Latency histogram — never dropped. Under ClosedLoop a request is due
// the moment it is claimed.
func Run(cfg Config, makeOp func(driver int) bench.Op) Result {
	if cfg.Arrival == nil {
		cfg.Arrival = ConstantRate{}
	}
	if cfg.Drivers <= 0 {
		cfg.Drivers = runtime.GOMAXPROCS(0)
	}
	if cfg.WorkersPerDriver <= 0 {
		cfg.WorkersPerDriver = 4
	}
	start := time.Now().Add(startLead)
	offered, claimer := cfg.Arrival.plan(cfg, start)
	workers := make([]worker, cfg.Drivers*cfg.WorkersPerDriver) // driver-major

	var wg sync.WaitGroup
	for d := 0; d < cfg.Drivers; d++ {
		op := makeOp(d)
		for w := 0; w < cfg.WorkersPerDriver; w++ {
			wg.Add(1)
			go func(w int, op bench.Op, next claim, rec *worker) {
				defer wg.Done()
				lat, svc := &rec.lat, &rec.svc
				rng := rand.New(rand.NewSource(cfg.Seed + int64(d)*1_000_003 + int64(w)))
				time.Sleep(time.Until(start))
				for {
					due, ok := next()
					if !ok {
						return
					}
					if !due.IsZero() {
						time.Sleep(time.Until(due))
					}
					sent := time.Now()
					if err := op(w, rng); err != nil {
						rec.errors++
					} else {
						rec.completed.Add(1)
					}
					// On a schedule, charge everything since the scheduled
					// offset, including the time this slot waited for a
					// free worker; Service keeps the worker's own view.
					if !due.IsZero() {
						lat.RecordSince(due)
					}
					svc.RecordSince(sent)
				}
			}(w, op, claimer(d), &workers[d*cfg.WorkersPerDriver+w])
		}
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// perDriver sums what each driver's workers have completed so far.
	perDriver := func() []uint64 {
		totals := make([]uint64, cfg.Drivers)
		for i := range workers {
			totals[i/cfg.WorkersPerDriver] += workers[i].completed.Load()
		}
		return totals
	}
	samples := sample(cfg.Interval, start, perDriver, done) // returns when the workers have
	res := Result{
		Arrival:   cfg.Arrival.Name(),
		Elapsed:   time.Since(start),
		Drivers:   cfg.Drivers,
		PerDriver: perDriver(),
		Samples:   samples,
	}
	for _, n := range res.PerDriver {
		res.Completed += n
	}
	for i := range workers {
		lat, svc := workers[i].lat.Snapshot(), workers[i].svc.Snapshot()
		res.Latency.Merge(&lat)
		res.Service.Merge(&svc)
		res.Errors += workers[i].errors
	}
	if res.Offered = offered; offered < 0 {
		res.Offered = int(res.Completed + res.Errors)
	}
	return res
}

// sample waits for done and, with a positive interval, cuts the running
// per-driver totals into one row of deltas per interval elapsed since start.
func sample(interval time.Duration, start time.Time, totals func() []uint64, done <-chan struct{}) [][]uint64 {
	if interval <= 0 {
		<-done
		return nil
	}
	var rows [][]uint64
	prev := totals()
	tick := time.NewTimer(time.Until(start.Add(interval)))
	defer tick.Stop()
	for {
		select {
		case <-done:
			// A timed run ends on an interval boundary, and its last row
			// is due even if the workers beat the timer to it.
			if time.Since(start) < time.Duration(len(rows)+1)*interval {
				return rows
			}
		case <-tick.C:
		}
		row := totals()
		for i, cur := range row {
			row[i], prev[i] = cur-prev[i], cur
		}
		rows = append(rows, row)
		// Timed from the origin, not from this wake-up: an overslept tick
		// shortens the next wait instead of shifting every later row.
		tick.Reset(time.Until(start.Add(time.Duration(len(rows)+1) * interval)))
	}
}
