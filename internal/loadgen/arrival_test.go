package loadgen

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"zeus/internal/bench"
)

func TestConstantRateSchedule(t *testing.T) {
	sched := ConstantRate{}.Schedule(1000, time.Second, 1)
	if len(sched) != 1000 {
		t.Fatalf("want 1000 arrivals at 1000/s over 1s, got %d", len(sched))
	}
	interval := time.Millisecond
	for i, d := range sched {
		want := time.Duration(i) * interval
		if diff := d - want; diff < -time.Microsecond || diff > time.Microsecond {
			t.Fatalf("arrival %d: got offset %v, want %v", i, d, want)
		}
	}
	if last := sched[len(sched)-1]; last >= time.Second {
		t.Fatalf("last arrival %v outside [0, duration)", last)
	}
}

func TestPoissonInterArrival(t *testing.T) {
	const rate = 2000.0
	const duration = 5 * time.Second
	sched := Poisson{}.Schedule(rate, duration, 7)

	// Count: Poisson(rate·duration) has mean 10000, sd 100; 5 sigma is 5%.
	n := len(sched)
	if n < 9500 || n > 10500 {
		t.Fatalf("arrival count %d outside 5%% of rate·duration=10000", n)
	}
	// Monotone non-decreasing within the horizon.
	prev := time.Duration(-1)
	for i, d := range sched {
		if d < prev {
			t.Fatalf("schedule not sorted at %d: %v after %v", i, d, prev)
		}
		if d < 0 || d >= duration {
			t.Fatalf("arrival %d offset %v outside [0, duration)", i, d)
		}
		prev = d
	}
	// Mean inter-arrival ≈ 1/rate = 500µs.
	var sum float64
	for i := 1; i < n; i++ {
		sum += float64(sched[i] - sched[i-1])
	}
	mean := sum / float64(n-1)
	want := float64(time.Second) / rate
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("mean inter-arrival %v, want within 5%% of %v",
			time.Duration(mean), time.Duration(want))
	}
	// Exponential gaps have sd = mean; a constant process would have sd 0.
	// Check the coefficient of variation is near 1 so this is not secretly
	// a jittered-constant schedule.
	var sq float64
	for i := 1; i < n; i++ {
		gap := float64(sched[i] - sched[i-1])
		sq += (gap - mean) * (gap - mean)
	}
	cv := math.Sqrt(sq/float64(n-2)) / mean
	if cv < 0.9 || cv > 1.1 {
		t.Fatalf("inter-arrival coefficient of variation %.3f, want ≈1 (exponential)", cv)
	}
	// Same seed, same schedule.
	again := Poisson{}.Schedule(rate, duration, 7)
	if len(again) != n || again[n/2] != sched[n/2] {
		t.Fatalf("Poisson schedule not reproducible for a fixed seed")
	}
}

// TestScheduleDrift bounds how late the harness itself issues requests: with
// a no-op workload the only latency is scheduler wakeup jitter plus slot
// claiming, so the omission-safe p99 is an upper bound on harness-induced
// drift. The bound is deliberately loose for loaded single-core CI hosts.
func TestScheduleDrift(t *testing.T) {
	res := Run(Config{
		Rate:     500,
		Duration: 400 * time.Millisecond,
		Drivers:  2,
	}, func(driver int) bench.Op {
		return func(worker int, rng *rand.Rand) error { return nil }
	})
	if res.Offered != 200 {
		t.Fatalf("offered %d, want 200", res.Offered)
	}
	if res.Completed != uint64(res.Offered) || res.Errors != 0 {
		t.Fatalf("completed=%d errors=%d, want all %d slots completed",
			res.Completed, res.Errors, res.Offered)
	}
	if p99 := time.Duration(res.Latency.Quantile(0.99)); p99 > 50*time.Millisecond {
		t.Fatalf("no-op schedule drift p99=%v, want <50ms", p99)
	}
}
