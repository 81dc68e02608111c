//go:build goexperiment.synctest

package retry

import (
	"testing"
	"testing/synctest"
	"time"
)

// TestTimerGranularityFirstCallInBubble: two goroutines make the first call
// inside a synctest bubble, where the probe's sleeps advance the fake clock
// only once every goroutine in the bubble is durably blocked. A caller parked
// on a mutex while another probes (sync.Once) is not, and hangs the bubble.
// Run with GOEXPERIMENT=synctest go test -run InBubble ./internal/retry.
func TestTimerGranularityFirstCallInBubble(t *testing.T) {
	granVal.Store(0)
	defer granVal.Store(0) // what a fake clock measured is not this host's
	synctest.Run(func() {
		got := make(chan time.Duration)
		for range 2 {
			go func() { got <- TimerGranularity() }()
		}
		a, b := <-got, <-got
		if a != b || a != time.Duration(granVal.Load()) {
			t.Errorf("first callers got %v and %v, published %v", a, b, time.Duration(granVal.Load()))
		}
		if a != 50*time.Microsecond {
			t.Errorf("a fake clock never overshoots, so the floor (50µs) is what a probe finds; got %v", a)
		}
	})
}
