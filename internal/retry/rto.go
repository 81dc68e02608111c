package retry

import (
	"sync"
	"time"
)

// RTOEstimator computes an adaptive retransmission timeout from RTT samples,
// following RFC 6298 (TCP): SRTT/RTTVAR smoothing with RTO = SRTT + 4*RTTVAR,
// clamped to [Min, Max], and exponential back-off while retransmitting.
//
// Callers must apply Karn's rule themselves: only feed Observe with samples
// from frames that were never retransmitted (a retransmitted frame's ACK is
// ambiguous). A fresh sample resets the retransmission back-off.
//
// Safe for concurrent use.
type RTOEstimator struct {
	mu      sync.Mutex
	srtt    time.Duration
	rttvar  time.Duration
	rto     time.Duration
	min     time.Duration
	max     time.Duration
	backoff uint // consecutive timeout-retransmit doublings
}

// NewRTOEstimator returns an estimator starting at initial, clamped to
// [min, max] once samples arrive.
func NewRTOEstimator(initial, min, max time.Duration) *RTOEstimator {
	if min <= 0 {
		min = 100 * time.Microsecond
	}
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	if max < min {
		max = min
	}
	if initial <= 0 {
		initial = min
	}
	if initial > max {
		initial = max
	}
	return &RTOEstimator{rto: initial, min: min, max: max}
}

// Observe feeds one RTT sample (RFC 6298 §2) and clears the back-off.
func (e *RTOEstimator) Observe(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		d := e.srtt - sample
		if d < 0 {
			d = -d
		}
		e.rttvar = (3*e.rttvar + d) / 4
		e.srtt = (7*e.srtt + sample) / 8
	}
	e.backoff = 0
	e.rto = e.clampLocked(e.srtt + 4*e.rttvar)
}

// RTO returns the current retransmission timeout, including back-off.
func (e *RTOEstimator) RTO() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	rto := e.rto << e.backoff
	if rto > e.max || rto < e.rto {
		rto = e.max
	}
	return rto
}

// Backoff doubles the effective RTO (called after a timeout retransmission,
// RFC 6298 §5.5); the next Observe resets it.
func (e *RTOEstimator) Backoff() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.backoff < 16 {
		e.backoff++
	}
}

func (e *RTOEstimator) clampLocked(d time.Duration) time.Duration {
	if d < e.min {
		return e.min
	}
	if d > e.max {
		return e.max
	}
	return d
}
