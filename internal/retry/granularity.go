package retry

import (
	"sync/atomic"
	"time"
)

// granVal is the probed granularity in nanoseconds, 0 until a probe publishes.
var granVal atomic.Int64

// TimerGranularity reports (probed on first use, then cached) how coarse this
// host's sleep timers actually are: the worst observed overshoot of a short
// time.Sleep. Virtualized and containerized hosts routinely stretch a 50µs
// sleep past a millisecond; timeouts racing against timer-driven events
// (delayed acks, flush ticks) must be floored by this value or they fire
// spuriously. The probe runs outside any lock: concurrent first callers each
// probe, and the first value published is the one every caller gets — so a
// caller never parks on another's sleep, which a fake clock (testing/synctest)
// would not count as a durable block.
func TimerGranularity() time.Duration {
	if g := granVal.Load(); g != 0 {
		return time.Duration(g)
	}
	granVal.CompareAndSwap(0, int64(probeGranularity()))
	return time.Duration(granVal.Load())
}

func probeGranularity() time.Duration {
	const probe = 50 * time.Microsecond
	var worst time.Duration
	for i := 0; i < 4; i++ {
		start := time.Now()
		time.Sleep(probe)
		if over := time.Since(start) - probe; over > worst {
			worst = over
		}
	}
	return min(max(worst, 50*time.Microsecond), 5*time.Millisecond)
}
