// Package safetime derives the quorum-advanced safe-time that backs MVCC
// snapshot reads (the Spanner-style "read at T, delay while lagging" scheme
// grafted onto Zeus's reliable commit plane).
//
// Two pieces:
//
//   - Clock: a hybrid-logical clock in nanoseconds. Every reliable commit is
//     stamped with a commit timestamp (CTS) drawn from the coordinator's
//     Clock; receivers merge observed CTSs back in, so causally-related
//     commits carry strictly increasing timestamps even across owner
//     migration.
//   - Tracker: the per-node applied-watermark table. Each node n advertises
//     a watermark W_n = "every reliable commit this node coordinates or has
//     accepted with CTS ≤ W_n is applied (and ring-published) at all its
//     followers". The safe-time S = min over live nodes of W_n, made
//     monotone. Any replica may serve a strictly-serializable snapshot read
//     at T once its local watermark reaches T, because S ≥ T implies every
//     commit that could order before T has been applied everywhere.
//
// Epoch fencing: watermarks are only comparable within a membership epoch.
// On a view change the table resets, and when the change removed nodes the
// tracker freezes S until the recovery barrier closes (Resume). The frozen
// S stays safe — a dead node's last advertised W bounded S below any commit
// it left unfinished — and the reset forces fresh, current-epoch reports
// from every live node, rejoiners included, before S moves again.
package safetime

import (
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/wire"
)

// Clock is a hybrid-logical clock over uint64 nanoseconds. The zero Clock
// is ready to use. All methods are safe for concurrent use.
type Clock struct {
	last atomic.Uint64
}

// Next mints a new timestamp: strictly greater than every timestamp this
// clock has minted or observed, and at least the wall clock. Deployments in
// this repository share one host (in-process cluster, multi-process on one
// machine), so wall clocks agree exactly; the logical component alone
// already guarantees correctness, wall time only keeps timestamps humane.
func (c *Clock) Next() uint64 {
	now := uint64(time.Now().UnixNano())
	for {
		last := c.last.Load()
		next := now
		if next <= last {
			next = last + 1
		}
		if c.last.CompareAndSwap(last, next) {
			return next
		}
	}
}

// Update merges an observed timestamp: after Update(x), Next returns > x.
func (c *Clock) Update(x uint64) {
	for {
		last := c.last.Load()
		if x <= last || c.last.CompareAndSwap(last, x) {
			return
		}
	}
}

// Now returns the largest timestamp minted or observed so far (0 if none).
func (c *Clock) Now() uint64 { return c.last.Load() }

// Tracker folds per-node watermark reports into the monotone safe-time.
type Tracker struct {
	mu     sync.Mutex
	epoch  wire.Epoch
	live   wire.Bitmap
	wm     map[wire.NodeID]uint64 // current-epoch reports only
	paused bool                   // view change with removals; wait for Resume

	safe atomic.Uint64 // monotone published safe-time
}

// NewTracker returns a Tracker that accepts no reports until the first
// OnViewChange installs an epoch and live set.
func NewTracker() *Tracker {
	return &Tracker{wm: make(map[wire.NodeID]uint64)}
}

// Observe records node from's applied watermark, reported in epoch. Reports
// from any epoch other than the tracker's current one are dropped — a stale
// watermark from before a migration could vouch for versions the new owner
// has already superseded. Watermarks regress only across epochs (the table
// was reset); within an epoch Observe keeps the max.
func (t *Tracker) Observe(from wire.NodeID, epoch wire.Epoch, wm uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch != t.epoch || !t.live.Contains(from) {
		return
	}
	if old, ok := t.wm[from]; !ok || wm > old {
		t.wm[from] = wm
	}
	t.advanceLocked()
}

// advanceLocked recomputes S. It moves only when every live node has
// reported in the current epoch and the tracker is not paused.
func (t *Tracker) advanceLocked() {
	if t.paused || t.live == 0 {
		return
	}
	min := ^uint64(0)
	for _, n := range t.live.Nodes() {
		w, ok := t.wm[n]
		if !ok {
			return
		}
		if w < min {
			min = w
		}
	}
	for {
		cur := t.safe.Load()
		if min <= cur || t.safe.CompareAndSwap(cur, min) {
			return
		}
	}
}

// OnViewChange installs the new epoch and live set. The watermark table
// resets unconditionally (cross-epoch watermarks are not comparable); if the
// change removed nodes the tracker additionally pauses until Resume, i.e.
// until the recovery barrier (the survivors' replays) closes.
func (t *Tracker) OnViewChange(epoch wire.Epoch, live wire.Bitmap, removed wire.Bitmap) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch = epoch
	t.live = live
	t.wm = make(map[wire.NodeID]uint64)
	if removed.Count() > 0 {
		t.paused = true
	}
}

// Resume lifts the pause set by a view change with removals, once the
// epoch's recovery barrier has closed. A Resume for a stale epoch is
// ignored (a newer view change superseded it).
func (t *Tracker) Resume(epoch wire.Epoch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch != t.epoch {
		return
	}
	t.paused = false
	t.advanceLocked()
}

// Safe returns the current safe-time. Monotone: never decreases, across
// view changes included.
func (t *Tracker) Safe() uint64 { return t.safe.Load() }

// Epoch returns the tracker's current epoch (for tests and debugging).
func (t *Tracker) Epoch() wire.Epoch {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}
