package loadgen

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/bench"
)

// TestClosedLoopCounted: every worker issues exactly Ops requests, errored
// ones included, and the per-driver totals add up to Completed.
func TestClosedLoopCounted(t *testing.T) {
	const drivers, workers, ops = 3, 2, 50
	issued := make([][]atomic.Int64, drivers)
	for d := range issued {
		issued[d] = make([]atomic.Int64, workers)
	}
	res := Run(Config{
		Arrival:          ClosedLoop{Ops: ops},
		Drivers:          drivers,
		WorkersPerDriver: workers,
		Seed:             1,
	}, func(driver int) bench.Op {
		return func(worker int, rng *rand.Rand) error {
			if issued[driver][worker].Add(1)%10 == 0 {
				return errors.New("every tenth request fails")
			}
			return nil
		}
	})
	for d := range issued {
		for w := range issued[d] {
			if n := issued[d][w].Load(); n != ops {
				t.Errorf("driver %d worker %d issued %d requests, want %d", d, w, n, ops)
			}
		}
	}
	const total = drivers * workers * ops
	if res.Completed != total*9/10 || res.Errors != total/10 || res.Offered != total {
		t.Fatalf("completed=%d errors=%d offered=%d, want %d, %d, %d",
			res.Completed, res.Errors, res.Offered, total*9/10, total/10, total)
	}
	var sum uint64
	for d, n := range res.PerDriver {
		if n != workers*ops*9/10 {
			t.Errorf("driver %d completed %d, want %d", d, n, workers*ops*9/10)
		}
		sum += n
	}
	if len(res.PerDriver) != drivers || sum != res.Completed {
		t.Fatalf("per-driver totals %v sum to %d, completed %d", res.PerDriver, sum, res.Completed)
	}
	if res.Arrival != "closed" || res.Samples != nil {
		t.Fatalf("arrival %q, %d sample rows without an interval", res.Arrival, len(res.Samples))
	}
	// Nothing had an intended send time, so there is no open-loop latency to
	// present; the closed-loop latency is Service, one sample per request.
	if res.Latency.Count != 0 || res.Latency.Quantile(0.99) != 0 {
		t.Fatalf("closed loop recorded %d intended-time samples (p99 %d)", res.Latency.Count, res.Latency.Quantile(0.99))
	}
	if res.Service.Count != total {
		t.Fatalf("service histogram holds %d samples for %d requests", res.Service.Count, total)
	}
}

// TestClosedLoopTimedSamples: a timed run keeps issuing for Duration, and
// with an Interval cuts what each driver completed into rows.
func TestClosedLoopTimedSamples(t *testing.T) {
	const drivers = 3
	// Duration ≫ interval: sleeps oversleep badly on loaded (-race,
	// single-core) hosts, and a too-tight ratio yields a lone sample.
	res := Run(Config{
		Arrival:          ClosedLoop{},
		Duration:         360 * time.Millisecond,
		Interval:         30 * time.Millisecond,
		Drivers:          drivers,
		WorkersPerDriver: 2,
		Seed:             7,
	}, func(driver int) bench.Op {
		return func(worker int, rng *rand.Rand) error {
			time.Sleep(200 * time.Microsecond)
			if rng.Intn(20) == 0 {
				return errors.New("one request in twenty fails")
			}
			return nil
		}
	})
	if res.Elapsed < 360*time.Millisecond {
		t.Fatalf("timed run lasted %v, want at least its 360ms", res.Elapsed)
	}
	if len(res.Samples) < 2 {
		t.Fatalf("only %d sample rows", len(res.Samples))
	}
	if res.Completed == 0 || res.Errors == 0 {
		t.Fatalf("completed=%d errors=%d in a timed run", res.Completed, res.Errors)
	}
	var sampled uint64
	for _, row := range res.Samples {
		if len(row) != drivers {
			t.Fatalf("sample row %v, want %d columns", row, drivers)
		}
		for _, v := range row {
			sampled += v
		}
	}
	if sampled == 0 || sampled > res.Completed {
		t.Fatalf("samples sum to %d, completed %d", sampled, res.Completed)
	}
	if res.Service.Count != res.Completed+res.Errors || res.Offered != int(res.Service.Count) {
		t.Fatalf("service histogram holds %d samples, offered %d, for %d completed + %d errors",
			res.Service.Count, res.Offered, res.Completed, res.Errors)
	}
	if res.Latency.Count != 0 {
		t.Fatalf("closed loop recorded %d intended-time samples", res.Latency.Count)
	}
}
