// Package lockedsuffix exercises the lockedsuffix analyzer: *Locked
// functions document "the caller holds the corresponding mutex", which the
// analyzer checks at every call with a lexical, lightly flow-sensitive walk.
package lockedsuffix

import (
	"sync"

	"zeus/internal/store"
)

type engine struct {
	mu sync.Mutex
}

// applyLocked carries the suffix, so it may call *Locked functions freely —
// the contract moved to its callers.
func (e *engine) applyLocked(o *store.Object) {
	o.RequestLocked()
}

// good: lock held lexically (defer-unlock keeps it held to scope end).
func good(e *engine, o *store.Object) {
	o.Mu.Lock()
	defer o.Mu.Unlock()
	o.GrantLocalLocked(1)
	e.applyLocked(o)
}

// goodBranchReturn: the Unlock inside the early-return branch does not
// release the fallthrough path's lock.
func goodBranchReturn(o *store.Object) {
	o.Mu.Lock()
	if o.LocalOwnerLocked() == store.NoLocalOwner {
		o.Mu.Unlock()
		return
	}
	o.YieldLocalLocked(0)
	o.Mu.Unlock()
}

// bad: the lock-free call path that holds nothing at all.
func bad(e *engine, o *store.Object) {
	o.GrantLocalLocked(1) // want `GrantLocalLocked called without a lexically held mutex`
	e.applyLocked(o)      // want `applyLocked called without a lexically held mutex`
}

// badUnlockThen: an unconditional Unlock releases the lock for the
// statements after it.
func badUnlockThen(o *store.Object) {
	o.Mu.Lock()
	o.Mu.Unlock()
	o.YieldLocalLocked(0) // want `YieldLocalLocked called without a lexically held mutex`
}

// badGoroutine: a goroutine does not inherit its creator's locks — this is
// how "called under lock" bugs actually escape in the engine.
func badGoroutine(o *store.Object) {
	o.Mu.Lock()
	defer o.Mu.Unlock()
	go func() {
		o.YieldLocalLocked(0) // want `YieldLocalLocked called without a lexically held mutex`
	}()
}

// badBranchMerge: only one branch locks, so the merge point holds nothing.
func badBranchMerge(o *store.Object, cond bool) {
	if cond {
		o.Mu.Lock()
	}
	o.GrantLocalLocked(4) // want `GrantLocalLocked called without a lexically held mutex`
	if cond {
		o.Mu.Unlock()
	}
}

// waived proves //lint:allow suppresses a finding (reason is mandatory).
func waived(o *store.Object) {
	o.GrantLocalLocked(5) //lint:allow lockedsuffix fixture demonstrates the waiver syntax
}
