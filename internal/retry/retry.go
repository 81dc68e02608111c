// Package retry is the unified reliability/retry subsystem shared by the
// three layers that previously each grew an ad-hoc retry loop:
//
//   - transport.Reliable's retransmitter (adaptive RTO, see RTOEstimator),
//   - the ownership engine's NACK back-off loop (§6.2 deadlock circumvention),
//   - dbapi.Run's application-level conflict-retry loop.
//
// A Policy describes when to give up and how to back off; a Retrier is one
// policy execution (attempt counter, current back-off, elapsed-time budget).
// Policies are deadline- and context-aware so callers riding through a crash
// recovery (membership epoch bump + replay, §5.1) keep retrying instead of
// surfacing transient aborts to the application.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// ErrExhausted is returned by Do when the policy's attempt or elapsed budget
// is spent. It is always wrapped around (joined with) the last attempt error.
var ErrExhausted = errors.New("retry: policy exhausted")

// Policy describes a retry strategy. The zero value is usable: it retries
// forever with a 2 µs initial back-off doubling to 2 ms, full jitter.
type Policy struct {
	// InitialBackoff is the back-off before the second attempt.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// Jitter is the fraction of the current back-off added uniformly at
	// random (default 1: sleep in [backoff, 2*backoff)). Zero-jitter
	// policies must set it negative; 0 means "use default".
	Jitter float64
	// MaxAttempts bounds the number of attempts; 0 means unlimited.
	MaxAttempts int
	// MaxElapsed bounds the total time across attempts and back-offs
	// measured from the first Next call; 0 means unlimited.
	MaxElapsed time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = 2 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff < p.InitialBackoff {
		p.MaxBackoff = p.InitialBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 1
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// Start begins one execution of the policy.
func (p Policy) Start() *Retrier {
	r := p.Begin()
	return &r
}

// Begin is Start by value, for callers that embed the Retrier in a struct
// they allocate anyway (the commit engine's slot) instead of paying a second
// allocation for it.
func (p Policy) Begin() Retrier {
	return Retrier{p: p.withDefaults()}
}

// Retrier tracks one policy execution. Not safe for concurrent use.
type Retrier struct {
	p       Policy
	attempt int
	backoff time.Duration
	start   time.Time
}

// Attempt returns the number of completed attempts.
func (r *Retrier) Attempt() int { return r.attempt }

// Next records a failed attempt and reports whether the policy allows another
// one, along with the jittered back-off to wait first. ok=false means the
// policy is exhausted.
func (r *Retrier) Next() (wait time.Duration, ok bool) {
	now := time.Now()
	if r.attempt == 0 {
		r.start = now
		r.backoff = r.p.InitialBackoff
	}
	r.attempt++
	if r.p.MaxAttempts > 0 && r.attempt >= r.p.MaxAttempts {
		return 0, false
	}
	if r.p.MaxElapsed > 0 && now.Sub(r.start) >= r.p.MaxElapsed {
		return 0, false
	}
	wait = r.backoff
	if r.p.Jitter > 0 {
		wait += time.Duration(rand.Int63n(int64(float64(r.backoff)*r.p.Jitter) + 1))
	}
	r.backoff = time.Duration(float64(r.backoff) * r.p.Multiplier)
	if r.backoff > r.p.MaxBackoff {
		r.backoff = r.p.MaxBackoff
	}
	// Never sleep past the elapsed budget.
	if r.p.MaxElapsed > 0 {
		if left := r.p.MaxElapsed - now.Sub(r.start); wait > left {
			wait = left
		}
	}
	return wait, true
}

// Sleep waits for d, returning early when ctx is done (with its error) or
// when wake fires (nil). Either channel may be nil.
func Sleep(ctx context.Context, d time.Duration, wake <-chan struct{}) error {
	if d <= 0 {
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	if ctxDone == nil && wake == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-wake:
		return nil
	case <-ctxDone:
		return ctx.Err()
	}
}

// Do runs fn until it returns nil, a non-retryable error, ctx is cancelled,
// or the policy is exhausted. retryable classifies errors (nil means every
// error is retryable). On exhaustion the last error is returned joined with
// ErrExhausted so callers can match either.
func Do(ctx context.Context, p Policy, retryable func(error) bool, fn func(attempt int) error) error {
	r := p.Start()
	for {
		err := fn(r.Attempt())
		if err == nil {
			return nil
		}
		if retryable != nil && !retryable(err) {
			return err
		}
		wait, ok := r.Next()
		if !ok {
			return errors.Join(ErrExhausted, err)
		}
		if serr := Sleep(ctx, wait, nil); serr != nil {
			return errors.Join(serr, err)
		}
	}
}
