package loadgen

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/bench"
)

// TestOmissionSafety is the coordinated-omission regression test: a 500ms
// stall is injected mid-run into an otherwise-instant workload running at
// 2000 req/s on a single worker. Every request scheduled during the stall
// queues behind it, so the open-loop histogram (clock starts at the intended
// send time) must show the backlog — roughly a thousand samples spread over
// 0–500ms, dragging p99 toward the stall length. The closed-loop view of the
// exact same run (clock starts when the worker actually sent) charges the
// stall to one sample and reports a healthy tail: the lie this harness
// exists to prevent. If a refactor ever breaks intended-time charging, the
// open-loop percentiles collapse to the closed-loop ones and this fails.
func TestOmissionSafety(t *testing.T) {
	const rate = 2000.0
	const duration = time.Second
	const stall = 500 * time.Millisecond

	var issued atomic.Int64
	res := Run(Config{
		Rate:             rate,
		Duration:         duration,
		Drivers:          1,
		WorkersPerDriver: 1,
		Seed:             1,
	}, func(driver int) bench.Op {
		return func(worker int, rng *rand.Rand) error {
			// One stall a quarter of the way in; every other request is free.
			if issued.Add(1) == int64(rate/4) {
				time.Sleep(stall)
			}
			return nil
		}
	})

	if res.Completed != uint64(res.Offered) {
		t.Fatalf("completed=%d offered=%d: open loop must issue every slot, late or not",
			res.Completed, res.Offered)
	}

	openP99 := time.Duration(res.Latency.Quantile(0.99))
	openP999 := time.Duration(res.Latency.Quantile(0.999))
	closedP99 := time.Duration(res.Service.Quantile(0.99))
	closedP999 := time.Duration(res.Service.Quantile(0.999))
	t.Logf("open-loop   p99=%v p999=%v", openP99, openP999)
	t.Logf("closed-loop p99=%v p999=%v", closedP99, closedP999)

	// ~1000 of ~2000 samples carry queueing delay up to 500ms, so even p99
	// must sit deep inside the stall, not at no-op scale.
	if openP99 < 100*time.Millisecond {
		t.Fatalf("open-loop p99=%v does not reflect the injected %v stall", openP99, stall)
	}
	if openP999 < openP99 {
		t.Fatalf("open-loop p999=%v below p99=%v", openP999, openP99)
	}
	// The closed-loop recorder sees one 500ms sample out of ~2000 — p99
	// stays at no-op scale, which is exactly the coordinated omission.
	if closedP99 > openP99/4 {
		t.Fatalf("closed-loop p99=%v too close to open-loop p99=%v — stall injection broken?",
			closedP99, openP99)
	}
	if closedP999 >= openP999 {
		t.Fatalf("closed-loop p999=%v ≥ open-loop p999=%v — intended-time charging lost",
			closedP999, openP999)
	}
}

// TestBacklogCharging checks the schedule-slot accounting directly: with one
// worker and an op that takes 2ms at a 1ms arrival interval, the system is
// 2× oversubscribed and the queue grows linearly, so late samples must grow
// toward (duration − service time) rather than clustering at the 2ms service
// time a closed-loop generator would report.
func TestBacklogCharging(t *testing.T) {
	const rate = 1000.0
	const duration = 300 * time.Millisecond
	res := Run(Config{
		Rate:             rate,
		Duration:         duration,
		Drivers:          1,
		WorkersPerDriver: 1,
		Seed:             1,
	}, func(driver int) bench.Op {
		return func(worker int, rng *rand.Rand) error {
			time.Sleep(2 * time.Millisecond)
			return nil
		}
	})
	openMax := time.Duration(res.Latency.Max())
	closedP99 := time.Duration(res.Service.Quantile(0.99))
	// The last slot was scheduled at ~300ms but drains at ~2ms/op behind
	// ~300 predecessors → its open-loop latency is hundreds of ms.
	if openMax < 100*time.Millisecond {
		t.Fatalf("open-loop max=%v under 2× oversubscription, want the queue visible (≥100ms)", openMax)
	}
	if closedP99 > 50*time.Millisecond {
		t.Fatalf("closed-loop p99=%v, want service-time scale (<50ms)", closedP99)
	}
}
