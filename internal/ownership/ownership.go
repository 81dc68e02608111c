// Package ownership implements Zeus' reliable ownership protocol (§4): the
// atomic, fault-tolerant migration of object data and access rights between
// nodes.
//
// Roles per request:
//
//   - requester: the node that needs a new access level; blocks the
//     application thread until the request completes (1.5 RTT fast path).
//   - driver: the directory node the REQ was sent to; mints the ownership
//     timestamp o_ts = ⟨obj_ver+1, node_id⟩ and invalidates the others.
//   - arbiters: the directory nodes plus the current owner (plus, for the
//     sharding request types of §6.2, affected readers). They resolve
//     contention by lexicographic o_ts comparison.
//
// The failure-free flow (top of Figure 3): REQ → driver mints o_ts, state
// Drive, INVs remaining arbiters → arbiters invalidate and ACK directly to
// the requester (the owner piggybacks the data when the requester holds an
// older version; it NACKs if the object has pending reliable commits) →
// requester applies first, unblocks the application, and VALs all arbiters.
//
// Recovery (bottom of Figure 3): after a membership epoch bump, any arbiter
// stuck with a pending request replays the exact same INV from its stored
// state (arb-replay); ACKs flow to the replaying driver, which RESPs a live
// requester (so the requester still applies first) or VALs directly when the
// requester died.
//
// A node is routinely requester, driver and arbiter of the same request (the
// requester drives whenever it co-locates with the object's directory shard,
// §4.2). Protocol steps addressed to the node itself are function calls on the
// goroutine that reached them, not messages: the requester runs the driver's
// REQ handling inline, and an arbiter hands its ACK straight to the local ACK
// collection. A failure-free move makes only what crosses the wire — the INV,
// the remote arbiters' ACKs and the VAL — and makes each as a sixteenth of an
// allocation: the engine Takes the record from a wire.Chunk of its own when it
// emits one; a decoding fabric's (TCP, reliable) wire.Decoder carves the
// decoded one from its chunks, and the hub hands over the emitted record
// itself. That costs nothing to get right because no handler keeps or writes
// a message: each copies what it needs by value (store.PendingOwn, ackSet,
// store.Shipped) before it returns, so a chunk lives for sixteen messages.
// What merely outlives a call is reused: the arbiters' arbitration records
// (pooled inside the store, which only ever hands out copies) and the
// requester-side record of an acquisition (ACK set, wake-up channel, attempt
// timer; see pendingReq for what guards its reuse).
package ownership

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/directory"
	"zeus/internal/obs"
	"zeus/internal/retry"
	"zeus/internal/shardmap"
	"zeus/internal/storage"
	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// transferYield is how long an owner defers new local write grants after
// NACKing a transfer for pending commits. It must comfortably exceed the
// requester's worst-case back-off (MaxBackoff 5ms + equal jitter = 10ms)
// plus the REQ→INV network hops, so the next probe is guaranteed to land
// inside the yield window with a drained pipeline.
const transferYield = 25 * time.Millisecond

// attemptTimeout bounds one REQ→final-ACK attempt; acquireDeadline bounds
// the whole acquisition, across retries and back-off.
const (
	attemptTimeout  = 100 * time.Millisecond
	acquireDeadline = 5 * time.Second
)

// retryPolicy paces the NACK/timeout retry loop (§6.2 deadlock
// circumvention): exponential with full jitter, unbounded attempts — the
// acquire deadline, not the policy, decides when to give up. Back-off sleeps
// are interrupted early by a membership epoch change: "owner busy" waits out
// the back-off, "owner dead" re-resolves the moment the view changes.
var retryPolicy = retry.Policy{
	InitialBackoff: 50 * time.Microsecond,
	MaxBackoff:     5 * time.Millisecond,
	Multiplier:     2,
	Jitter:         1,
}

// Errors returned by Acquire and friends.
var (
	// ErrTimeout: the request did not complete within the deadline.
	ErrTimeout = errors.New("ownership: request timed out")
	// ErrAborted: the request was NACKed and retries were exhausted.
	ErrAborted = errors.New("ownership: request aborted")
	// ErrUnknownObject: the directory has no entry for the object.
	ErrUnknownObject = errors.New("ownership: unknown object")
	// ErrClosed: the engine is shut down.
	ErrClosed = errors.New("ownership: engine closed")
)

// Config carries what the node wires the engine to; core.NewNode fills it.
type Config struct {
	// Directory resolves object → shard → arbitration drivers (§6.2).
	// Required.
	Directory directory.Directory
	// HasPendingCommit is the reliable-commit engine's probe: the owner
	// NACKs ownership requests for objects with pending reliable commits
	// (§4.1). It MUST NOT lock the object (the engine may hold the object
	// mutex when calling it); objects held by executing local transactions
	// are detected by the engine itself via Object.LocalOwnerLocked. Nil
	// means no commit engine: never pending.
	HasPendingCommit func(wire.ObjectID) bool
	// Log, when set, records applied ownership grants (recGrant) so a
	// restarted node knows each object's last-known replica set and level.
	// The engine never closes the log.
	Log *storage.Log
	// Obs, when non-nil, receives the engine's metrics.
	Obs *obs.Registry
	// OnLatency, if set, observes the latency of every successful
	// ownership request (the metric of Figure 12).
	OnLatency func(time.Duration)
}

// staleAfter is how long a pending arbitration may linger before a driver
// force-completes it with an arb-replay (liveness escape for requesters that
// died or gave up before validating).
const staleAfter = 250 * time.Millisecond

// Stats aggregates engine counters.
type Stats struct {
	Requests  uint64 // ownership requests issued (attempts)
	Succeeded uint64
	Nacks     uint64
	Timeouts  uint64
	Replays   uint64 // arb-replays driven during recovery
}

// Engine runs the ownership protocol on one node.
type Engine struct {
	self  wire.NodeID
	st    *store.Store
	tr    transport.Transport
	agent *viewsvc.Agent
	cfg   Config
	dir   directory.Directory

	// attemptTimeout and deadline start as the package's attemptTimeout and
	// acquireDeadline; tests shorten or stretch them on one engine.
	attemptTimeout, deadline time.Duration

	// Hot-path state is striped so concurrent requests on different
	// objects (or different request ids) never serialize on one engine
	// lock (§7: worker threads are independent):
	//
	//   - pending, striped by reqID: the requester-side ACK collection
	//     (the record currently running that request id).
	//   - valsAwait, striped by ObjectID: VALs that overtook their INV.
	//
	// Only recovery keeps a single slow-path mutex (recovMu): arb-replays
	// happen around view changes, never in the failure-free flow, and the
	// atomic recovN count lets handleAck skip the lock entirely while no
	// replay is in flight.
	nextReq   atomic.Uint64
	pending   *shardmap.Striped[uint64, *pendingReq]
	valsAwait *shardmap.Striped[wire.ObjectID, wire.OTS]

	recovMu sync.Mutex
	recov   map[uint64]*recovState // recovery-driver side, by reqID
	recovN  atomic.Int32

	// free parks the request records of finished acquisitions for the next
	// ones (LIFO; its depth is bounded by the acquisitions ever in flight at
	// once, i.e. the node's application threads).
	freeMu sync.Mutex
	free   []*pendingReq

	// The failure-free flow's three emissions take their message records
	// from these chunks (see take): the driver's INV, a remote arbiter's ACK
	// and the requester's VAL. Shard goroutines and requesters emit at once,
	// so recMu serializes the Take — and only the Take.
	recMu sync.Mutex
	invs  wire.Chunk[wire.OwnInv]
	acks  wire.Chunk[wire.OwnAck]
	vals  wire.Chunk[wire.OwnVal]

	recovering atomic.Bool
	closed     chan struct{}
	once       sync.Once

	// Config.Log, and the cached metric handles the request path records
	// into — nil without Config.Obs, which keeps the seed path (one branch).
	log *storage.Log
	obs *engineObs

	stRequests  atomic.Uint64
	stSucceeded atomic.Uint64
	stNacks     atomic.Uint64
	stTimeouts  atomic.Uint64
	stReplays   atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand
}

// outcome is how one request id ended. It carries the id because the record
// (and so the channel) it travels through outlives the request.
type outcome struct {
	id     uint64
	ok     bool
	reason wire.NackReason
	from   wire.NodeID // NACK sender (unknown-object opinions are per driver)
}

// ackSet is the requester-side ACK collection of one request id.
type ackSet struct {
	arbiters    wire.Bitmap // learned from the first ACK
	acked       wire.Bitmap
	ts          wire.OTS
	newReplicas wire.ReplicaSet
	val         store.Shipped // what the data source holds (fromSource)
	applied     bool
}

// pendingReq is the requester-side record of an acquisition: the ACK
// collection of the request id it currently runs, the channel that wakes the
// blocked application goroutine and the attempt timer. One record serves a
// whole acquisition (rekey gives it a fresh request id after a lost
// arbitration or a timeout) and is then parked for the next (Engine.free), so
// a handler that looked it up under an id that has since finished can still
// be holding it. Hence the rule: id is only read or written under mu, every
// handler compares it with the id its message carries before touching
// anything else, and run ignores outcomes for any id but the current one — a
// late NACK, ACK or RESP for a finished request cannot complete, or add to,
// the request that reuses the record.
type pendingReq struct {
	mode wire.ReqMode // fixed while id != 0

	mu sync.Mutex
	id uint64 // request id in flight; 0 while parked
	ackSet

	// done holds a request id's outcomes until run reads them: one success,
	// or a NACK from its driver plus one from each driver it lost an
	// arbitration to — a handful; a full channel drops the outcome and costs
	// the attempt its timeout.
	done  chan outcome
	timer *time.Timer // attempt timeout, stopped between attempts
}

// deliver hands run the outcome of request id, unless the record moved on.
func (r *pendingReq) deliver(id uint64, out outcome) {
	out.id = id
	r.mu.Lock()
	if r.id == id {
		select {
		case r.done <- out:
		default:
		}
	}
	r.mu.Unlock()
}

type recovState struct {
	reqID    uint64
	obj      wire.ObjectID
	ts       wire.OTS
	arbiters wire.Bitmap
	acked    wire.Bitmap
	pend     store.PendingOwn
	val      store.Shipped
	finished bool
}

// New creates an ownership engine. Call Register to hook it into a router.
func New(self wire.NodeID, st *store.Store, tr transport.Transport, agent *viewsvc.Agent, cfg Config) *Engine {
	if cfg.HasPendingCommit == nil {
		cfg.HasPendingCommit = func(wire.ObjectID) bool { return false }
	}
	e := &Engine{
		self:      self,
		st:        st,
		tr:        tr,
		agent:     agent,
		cfg:       cfg,
		dir:       cfg.Directory,
		pending:   shardmap.NewStriped[uint64, *pendingReq](shardmap.Mix64),
		recov:     make(map[uint64]*recovState),
		valsAwait: shardmap.NewStriped[wire.ObjectID, wire.OTS](func(id wire.ObjectID) uint64 { return shardmap.Mix64(uint64(id)) }),
		closed:    make(chan struct{}),
		rng:       rand.New(rand.NewSource(int64(self)*7919 + 1)),
		log:       cfg.Log,

		attemptTimeout: attemptTimeout,
		deadline:       acquireDeadline,
	}
	if cfg.Obs != nil {
		e.obs = newEngineObs(e, cfg.Obs)
	}
	return e
}

// Register installs the engine's handlers on the router.
func (e *Engine) Register(r *transport.Router) {
	r.HandleMany(e.Handle,
		wire.KindOwnReq, wire.KindOwnInv, wire.KindOwnAck,
		wire.KindOwnVal, wire.KindOwnNack, wire.KindOwnResp)
}

// Close shuts the engine down.
func (e *Engine) Close() { e.once.Do(func() { close(e.closed) }) }

// Stats returns a snapshot of counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Requests:  e.stRequests.Load(),
		Succeeded: e.stSucceeded.Load(),
		Nacks:     e.stNacks.Load(),
		Timeouts:  e.stTimeouts.Load(),
		Replays:   e.stReplays.Load(),
	}
}

// DrivesShard reports whether n drives the directory shard of obj (§6.2).
func (e *Engine) DrivesShard(n wire.NodeID, obj wire.ObjectID) bool {
	return e.dir.DrivesShard(n, obj)
}

// send hands m to the transport, or, when the node addresses itself (it can
// be requester, driver and arbiter at once), handles it inline on the calling
// goroutine. The two self-addressed steps of the failure-free flow do not
// even come here (run calls handleReq, ackAsArbiter calls handleAck, both on
// a stack message); what does is a NACK to a local requester.
//
// Because a handler may therefore run inside send, no lock a handler takes —
// an object's Mu, a request record's mu, recovMu — may be held across a send
// that can be self-addressed. The one send under a lock,
// checkRecoveryCompleteLocked's RESP under recovMu, only ever goes to a
// requester other than this node.
func (e *Engine) send(to wire.NodeID, m wire.Msg) {
	if to == e.self {
		e.Handle(e.self, m)
		return
	}
	_ = e.tr.Send(to, m)
}

// take hands out the next record of one of the engine's emission chunks. The
// caller fills it outside the lock, once, before the send (zeuslint
// frozen), and nobody gives it back: a record is handed out once.
func take[T any](e *Engine, c *wire.Chunk[T]) *T {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	return c.Take()
}

// Handle dispatches one inbound ownership message. No handler keeps m, or a
// pointer into it, past its return: that bounds a chunk's life to the
// ChunkRecords messages carved from it.
func (e *Engine) Handle(from wire.NodeID, m wire.Msg) {
	switch v := m.(type) {
	case *wire.OwnReq:
		e.handleReq(v)
	case *wire.OwnInv:
		e.handleInv(v)
	case *wire.OwnAck:
		e.handleAck(v)
	case *wire.OwnVal:
		e.handleVal(v)
	case *wire.OwnNack:
		e.deliver(v.ReqID, outcome{reason: v.Reason, from: v.From})
	case *wire.OwnResp:
		e.handleResp(v)
	}
}

// ---------------------------------------------------------------------------
// Requester side.
// ---------------------------------------------------------------------------

// AcquireOwnership blocks until this node is the owner of obj (§4.1). It is
// invoked by the transaction layer the first time a write accesses an object
// this node does not own; subsequent transactions skip it entirely.
func (e *Engine) AcquireOwnership(obj wire.ObjectID) error {
	return e.run(obj, wire.AcquireOwner, 0, time.Time{})
}

// AcquireOwnershipBy is AcquireOwnership giving up at by when that is sooner
// than the engine's own deadline (checked between attempts).
func (e *Engine) AcquireOwnershipBy(obj wire.ObjectID, by time.Time) error {
	return e.run(obj, wire.AcquireOwner, 0, by)
}

// AcquireRead blocks until this node is a reader (or owner) of obj.
func (e *Engine) AcquireRead(obj wire.ObjectID) error {
	return e.run(obj, wire.AcquireReader, 0, time.Time{})
}

// Create registers a fresh object with the directory: this node becomes the
// owner and readers become replicas (they learn their role via the INVs).
func (e *Engine) Create(obj wire.ObjectID, readers wire.Bitmap) error {
	return e.run(obj, wire.CreateObject, readers.Remove(e.self), time.Time{})
}

// DropReader removes reader from obj's replica set, restoring the replication
// degree out of the critical path (§6.2).
func (e *Engine) DropReader(obj wire.ObjectID, reader wire.NodeID) error {
	return e.run(obj, wire.DropReader, wire.BitmapOf(reader), time.Time{})
}

// Delete unregisters obj deployment-wide; replicas discard their data.
func (e *Engine) Delete(obj wire.ObjectID) error {
	return e.run(obj, wire.DeleteObject, 0, time.Time{})
}

// levelSatisfied reports whether the node already holds the needed level.
func (e *Engine) levelSatisfied(obj wire.ObjectID, mode wire.ReqMode) bool {
	o, ok := e.st.Get(obj)
	if !ok {
		return false
	}
	o.Mu.Lock()
	defer o.Mu.Unlock()
	switch mode {
	case wire.AcquireOwner:
		return o.HoldsLocked(wire.Owner)
	case wire.AcquireReader:
		return o.HoldsLocked(wire.Reader)
	default:
		return false
	}
}

// beginRequest takes a parked request record (or makes the node's next one)
// for an acquisition in the given mode and gives it its first request id.
func (e *Engine) beginRequest(mode wire.ReqMode) (*pendingReq, uint64) {
	var req *pendingReq
	e.freeMu.Lock()
	if n := len(e.free); n > 0 {
		req, e.free = e.free[n-1], e.free[:n-1]
	}
	e.freeMu.Unlock()
	if req == nil {
		req = &pendingReq{done: make(chan outcome, 8), timer: time.NewTimer(time.Hour)}
		req.timer.Stop()
	}
	req.mode = mode // parked: no handler gets past the id check
	return req, e.rekey(req)
}

// rekey moves req to a fresh request id: ACK collection starts over, and
// whatever is still in flight for the previous id no longer matches.
func (e *Engine) rekey(req *pendingReq) uint64 {
	id := uint64(e.self)<<48 | e.nextReq.Add(1)
	e.retire(req, id)
	e.pending.Put(id, req)
	return id
}

// retire ends req's current request id, replacing it with next (0 to park).
func (e *Engine) retire(req *pendingReq, next uint64) {
	req.mu.Lock()
	old := req.id
	req.id = next
	req.ackSet = ackSet{}
	req.mu.Unlock()
	if old != 0 {
		e.pending.Delete(old)
	}
}

// endRequest parks req for the next acquisition.
func (e *Engine) endRequest(req *pendingReq) {
	e.retire(req, 0)
	e.freeMu.Lock()
	e.free = append(e.free, req)
	e.freeMu.Unlock()
}

// await blocks until request id has an outcome, its attempt times out
// (timedOut) or the engine closes (ErrClosed).
func (e *Engine) await(req *pendingReq, id uint64) (out outcome, timedOut bool, err error) {
	req.timer.Reset(e.attemptTimeout)
	defer req.timer.Stop()
	for {
		select {
		case out = <-req.done:
			if out.id == id {
				return out, false, nil
			}
			// Left over from an id this record ran earlier: not ours.
		case <-req.timer.C:
			return outcome{}, true, nil
		case <-e.closed:
			return outcome{}, false, ErrClosed
		}
	}
}

// run drives one request until it succeeds or fails; it gives up at the
// engine's acquire deadline, or at by when that is sooner (zero: no by).
func (e *Engine) run(obj wire.ObjectID, mode wire.ReqMode, target wire.Bitmap, by time.Time) error {
	if e.levelSatisfied(obj, mode) {
		return nil
	}
	start := time.Now()
	deadline := start.Add(e.deadline)
	if !by.IsZero() && by.Before(deadline) {
		deadline = by
	}
	retr := retryPolicy.Begin()

	req, id := e.beginRequest(mode)
	defer e.endRequest(req)

	// unknownFrom collects the DISTINCT drivers that answered
	// unknown-object. One driver's word is not final: a driver whose shard
	// sync was force-readied (all snapshot sources dead or silent) may hold
	// no entry for an object its peers know. The request only fails as
	// unknown once several distinct drivers — or every live driver of the
	// shard — agree, and pickDriver steers retries away from the drivers
	// that already said unknown.
	var unknownFrom wire.Bitmap
	const unknownRetries = 3

	for {
		select {
		case <-e.closed:
			return ErrClosed
		default:
		}
		// Mark local o_state = Request (unless an INV owns the entry).
		o, _ := e.st.GetOrCreate(obj)
		o.Mu.Lock()
		holds := o.RequestLocked()
		o.Mu.Unlock()

		driver := e.pickDriver(obj, unknownFrom)
		e.stRequests.Add(1)
		m := wire.OwnReq{
			ReqID: id, Obj: obj, Requester: e.self, Mode: mode,
			Epoch: e.agent.Epoch(), Target: target,
			Shard: uint32(e.dir.ShardOf(obj)), Holds: holds,
		}
		if driver == e.self {
			// Co-located with the shard (§4.2): drive the request right
			// here; the REQ never leaves this stack frame.
			e.handleReq(&m)
		} else {
			wm := m
			_ = e.tr.Send(driver, &wm)
		}

		out, timedOut, err := e.await(req, id)
		if err != nil {
			return err
		}
		if ob := e.obs; ob != nil && !timedOut && !out.ok && int(out.reason) < nackReasonCount {
			ob.nacks[out.reason].Inc()
		}

		ownerBusy := false
		switch {
		case !timedOut && out.ok:
			e.stSucceeded.Add(1)
			if ob := e.obs; ob != nil {
				ob.acquireNS.RecordSince(start)
				// Bounds-checked: a placement change can grow the
				// shard count past the wiring-time family.
				if s := e.dir.ShardOf(obj); s < len(ob.migrations) {
					ob.migrations[s].Inc()
				}
			}
			if e.cfg.OnLatency != nil {
				e.cfg.OnLatency(time.Since(start))
			}
			return nil
		case !timedOut && out.reason == wire.NackUnknownObject:
			unknownFrom = unknownFrom.Add(out.from)
			liveDrivers := e.dir.DriversFor(obj).Intersect(e.agent.View().Live)
			if unknownFrom.Count() >= unknownRetries ||
				unknownFrom.Intersect(liveDrivers) == liveDrivers {
				e.resetRequestState(obj)
				return fmt.Errorf("%w: %d", ErrUnknownObject, obj)
			}
			id = e.rekey(req)
		case !timedOut && out.reason == wire.NackPendingCommit:
			// Owner busy: retry the SAME request — the driver still
			// holds the arbitration in Drive state and will re-INV with
			// the same o_ts; the owner ACKs once its pipeline drains.
			ownerBusy = true
		case !timedOut && out.reason == wire.NackUnbacked:
			// The SAME request again, Holds restated: the source now ships.
			req.mu.Lock()
			req.ackSet = ackSet{}
			req.mu.Unlock()
		default:
			// Lost arbitration, stale epoch, recovering, or timeout
			// (possibly a dead owner or driver): fresh arbitration with
			// a new request id.
			if timedOut {
				e.stTimeouts.Add(1)
			}
			id = e.rekey(req)
		}

		if time.Now().After(deadline) {
			e.resetRequestState(obj)
			if timedOut {
				return fmt.Errorf("%w: obj %d (%v)", ErrTimeout, obj, mode)
			}
			return fmt.Errorf("%w: obj %d (%v): %v", ErrAborted, obj, mode, out.reason)
		}
		wait, ok := retr.Next()
		if !ok {
			e.resetRequestState(obj)
			return fmt.Errorf("%w: obj %d (%v): retry policy exhausted", ErrAborted, obj, mode)
		}
		// Back off (§6.2 deadlock circumvention), but wake immediately on
		// a membership epoch change: "owner busy" becomes "owner dead" the
		// moment the view changes, and the right move then is to re-resolve
		// through the directory at once rather than sleep out the back-off.
		// The signal must be captured before the epoch read: a view change
		// landing between the two would otherwise close the old channel
		// unseen and the new one would sleep through the whole back-off.
		wake := e.agent.ChangeSignal()
		epochBefore := e.agent.Epoch()
		_ = retry.Sleep(nil, wait, wake)
		if e.agent.Epoch() != epochBefore && ownerBusy {
			// The arbitration we were waiting on may have been force-
			// completed by recovery under a new epoch; start fresh.
			id = e.rekey(req)
		}
	}
}

// resetRequestState restores o_state after an abandoned request.
func (e *Engine) resetRequestState(obj wire.ObjectID) {
	if o, ok := e.st.Get(obj); ok {
		o.Mu.Lock()
		o.SettleRequestLocked()
		o.Mu.Unlock()
	}
}

// pickDriver chooses an arbitrary live driver of obj's directory shard,
// preferring self when co-located with the shard (saves the first hop,
// §4.2). Drivers in avoid (they already answered unknown-object for this
// acquisition) are skipped while any other live driver remains, so repeated
// opinions really come from distinct drivers.
func (e *Engine) pickDriver(obj wire.ObjectID, avoid wire.Bitmap) wire.NodeID {
	drivers := e.dir.DriversFor(obj)
	live := e.agent.View().Live
	if drivers.Contains(e.self) && live.Contains(e.self) && !avoid.Contains(e.self) {
		return e.self
	}
	candidates := drivers.Intersect(live).Remove(e.self)
	if preferred := candidates &^ avoid; preferred != 0 {
		candidates = preferred
	}
	n := candidates.Count()
	if n == 0 {
		// Nothing live: the lowest driver, and let it time out.
		if d, ok := lowest(drivers); ok {
			return d
		}
		return e.self
	}
	e.rngMu.Lock()
	skip := e.rng.Intn(n)
	e.rngMu.Unlock()
	for d := range candidates.Each {
		if skip == 0 {
			return d
		}
		skip--
	}
	return e.self // not reached: skip < n
}

// readerSource is the data source of a request whose owner is dead: the
// lowest live reader but the requester.
func readerSource(reps wire.ReplicaSet, live wire.Bitmap, requester wire.NodeID) (wire.NodeID, bool) {
	return lowest(reps.Readers.Intersect(live).Remove(requester))
}

// lowest returns the lowest-numbered member of set.
func lowest(set wire.Bitmap) (wire.NodeID, bool) {
	for n := range set.Each {
		return n, true
	}
	return wire.NoNode, false
}

// ---------------------------------------------------------------------------
// Driver side.
// ---------------------------------------------------------------------------

func (e *Engine) handleReq(m *wire.OwnReq) {
	epoch := e.agent.Epoch()
	if m.Epoch != epoch {
		e.send(m.Requester, &wire.OwnNack{ReqID: m.ReqID, Obj: m.Obj, Epoch: epoch, From: e.self, Reason: wire.NackWrongEpoch})
		return
	}
	if e.recovering.Load() {
		e.send(m.Requester, &wire.OwnNack{ReqID: m.ReqID, Obj: m.Obj, Epoch: epoch, From: e.self, Reason: wire.NackRecovering})
		return
	}
	// Shard routing (§6.2): this node must drive the object's shard AND
	// agree with the requester on which shard that is (a shard-count
	// mismatch between placements would otherwise arbitrate with the wrong
	// driver set). Misrouted REQs are NACKed so the requester re-resolves
	// immediately instead of timing out.
	if !e.dir.DrivesShard(e.self, m.Obj) || int(m.Shard) != e.dir.ShardOf(m.Obj) {
		e.send(m.Requester, &wire.OwnNack{ReqID: m.ReqID, Obj: m.Obj, Epoch: epoch, From: e.self, Reason: wire.NackNotDriver})
		return
	}
	// A freshly assigned driver NACKs until the shard's metadata snapshot
	// landed (directory.Service sync); arbitrating from an empty entry
	// would mis-grant unknown-object or mint a losing timestamp.
	if !e.dir.Ready(m.Obj) {
		e.send(m.Requester, &wire.OwnNack{ReqID: m.ReqID, Obj: m.Obj, Epoch: epoch, From: e.self, Reason: wire.NackRecovering})
		return
	}
	o, _ := e.st.GetOrCreate(m.Obj)
	o.Mu.Lock()
	cur := o.ReplicasLocked()
	pend, arbitrating := o.PendingLocked()

	// Unknown object: no replica anywhere and not a creation request.
	// (This also covers deleted objects and catastrophic data loss.)
	if m.Mode != wire.CreateObject && cur.Owner == wire.NoNode &&
		cur.Readers.Count() == 0 && !arbitrating {
		o.Mu.Unlock()
		e.send(m.Requester, &wire.OwnNack{ReqID: m.ReqID, Obj: m.Obj, Epoch: epoch, From: e.self, Reason: wire.NackUnknownObject})
		return
	}

	// Retry of the request this driver already arbitrates: re-INV with the
	// same o_ts and the restated Holds (idempotent); arbiters re-ACK.
	if arbitrating && pend.ReqID == m.ReqID {
		o.Mu.Unlock()
		pend.Holds = m.Holds
		inv := e.invFromPending(m.Obj, pend)
		e.sendOthers(pend.Arbiters, inv)
		e.ackOnceCommitted(inv) // driver re-ACKs too
		return
	}

	// An arbitration for a *different* request is pending on this entry.
	// The new replica set of a request must be computed from an applied
	// (validated) state — deriving it from a pending one could strand the
	// pending winner with a stale access level. So the driver refuses to
	// arbitrate (the requester backs off and retries), and if the pending
	// arbitration has lingered (its requester died or gave up before
	// validating), the driver force-completes it via arb-replay — any
	// arbiter has all the information to do so idempotently (§4.1).
	if arbitrating {
		stale := time.Since(pend.Since) > staleAfter
		o.Mu.Unlock()
		e.stNacks.Add(1)
		e.send(m.Requester, &wire.OwnNack{
			ReqID: m.ReqID, Obj: m.Obj, Epoch: epoch, From: e.self,
			Reason: wire.NackLostArbitration,
		})
		if stale {
			e.stReplays.Add(1)
			pend.Epoch = epoch
			go e.arbReplay(m.Obj, pend, epoch, e.agent.View().Live)
		}
		return
	}

	// When the driver itself is the current owner, it enforces the
	// pending-commit rule before arbitrating away its own write access
	// (pending reliable commits or an executing local transaction, §4.1).
	// HasPendingCommit reads the object's atomic PendingCommits counter
	// (bumped under the object lock at local-commit time) when wired to
	// the commit engine, and is a stub seam in tests.
	if o.LevelLocked() == wire.Owner && m.Requester != e.self &&
		(o.LocalOwnerLocked() != store.NoLocalOwner || e.cfg.HasPendingCommit(m.Obj)) {
		o.YieldLocalLocked(transferYield)
		o.Mu.Unlock()
		e.stNacks.Add(1)
		e.send(m.Requester, &wire.OwnNack{
			ReqID: m.ReqID, Obj: m.Obj, Epoch: epoch, From: e.self,
			Reason: wire.NackPendingCommit,
		})
		return
	}

	// Mint a fresh o_ts strictly above the applied version. Concurrent
	// requests through other drivers mint the same version with different
	// node ids; the lexicographic order picks exactly one winner (§4.1).
	ts := wire.OTS{Ver: o.OTSLocked().Ver + 1, Node: e.self}

	// Compute the replica set after the request.
	var next wire.ReplicaSet
	switch m.Mode {
	case wire.AcquireOwner:
		next = cur.WithOwner(m.Requester)
	case wire.AcquireReader:
		next = cur.WithReader(m.Requester)
	case wire.DropReader:
		next = cur
		for n := range m.Target.Each {
			next = next.WithoutReader(n)
		}
	case wire.CreateObject:
		next = wire.ReplicaSet{Owner: m.Requester, Readers: m.Target.Remove(m.Requester)}
	case wire.DeleteObject:
		next = wire.ReplicaSet{Owner: wire.NoNode}
	}

	// Arbiters: the shard's drivers + the current owner. Sharding requests
	// (§6.2) additionally involve the affected replicas: dropped readers
	// must discard data, created readers must learn their role, deletes
	// reach everyone. If the owner died, a live reader other than the
	// requester joins the arbitration as the data source.
	live := e.agent.View().Live
	arbiters := e.dir.DriversFor(m.Obj).Intersect(live)
	prevOwner := cur.Owner
	if prevOwner != wire.NoNode && live.Contains(prevOwner) {
		arbiters = arbiters.Add(prevOwner)
	} else {
		prevOwner = wire.NoNode
	}
	switch m.Mode {
	case wire.DropReader:
		arbiters = arbiters.Union(m.Target.Intersect(live))
	case wire.CreateObject:
		arbiters = arbiters.Union(next.Readers.Intersect(live))
	case wire.DeleteObject:
		arbiters = arbiters.Union(cur.All().Intersect(live))
	default:
		if prevOwner == wire.NoNode {
			if src, ok := readerSource(cur, live, m.Requester); ok {
				arbiters = arbiters.Add(src)
				prevOwner = src // acts as the data source
			}
		}
	}

	pend = store.PendingOwn{
		ReqID: m.ReqID, TS: ts, Requester: m.Requester, Driver: e.self,
		Mode: m.Mode, NewReplicas: next, PrevOwner: prevOwner,
		Arbiters: arbiters, Epoch: epoch, Holds: m.Holds, Since: time.Now(),
	}
	o.DriveLocked(pend)
	o.Mu.Unlock()

	inv := e.invFromPending(m.Obj, pend)
	e.sendOthers(arbiters, inv)
	e.ackOnceCommitted(inv)
}

func (e *Engine) invFromPending(obj wire.ObjectID, p store.PendingOwn) *wire.OwnInv {
	inv := take(e, &e.invs)
	*inv = wire.OwnInv{
		ReqID: p.ReqID, Obj: obj, TS: p.TS, Epoch: p.Epoch,
		Requester: p.Requester, Driver: p.Driver, Mode: p.Mode,
		NewReplicas: p.NewReplicas, PrevOwner: p.PrevOwner,
		Arbiters: p.Arbiters, Holds: p.Holds,
	}
	return inv
}

// sendOthers sends m to every member of set but this node.
func (e *Engine) sendOthers(set wire.Bitmap, m wire.Msg) {
	for n := range set.Remove(e.self).Each {
		_ = e.tr.Send(n, m)
	}
}

// ackAsArbiter ACKs inv's requester (its replaying driver during recovery):
// every arbiter does so once it holds the arbitration, the driver included —
// it has applied the pending request (state Drive) like any arbiter. An ACK
// to this node itself is collected right here and never leaves the stack.
func (e *Engine) ackAsArbiter(inv *wire.OwnInv) {
	dst := inv.Requester
	if inv.Recovery {
		dst = inv.Driver
	}
	if dst == e.self {
		var ack wire.OwnAck
		e.buildAck(&ack, inv)
		e.handleAck(&ack)
		return
	}
	ack := take(e, &e.acks)
	e.buildAck(ack, inv)
	_ = e.tr.Send(dst, ack)
}

// ackOnceCommitted ACKs inv (ackAsArbiter) once this node may: at once,
// unless it is inv's data source and holds a value it committed locally whose
// reliable commit still runs (Write). A requester installs what a source ships
// as Valid, so the owner refuses INVs while its commits are pending (§4.1) —
// all but a replay, which must complete, and which therefore waits for them
// here. The wait runs on a goroutine of its own, over a copy of inv: a handler
// must neither block — the commit it waits for may be queued behind it — nor
// keep a message.
func (e *Engine) ackOnceCommitted(inv *wire.OwnInv) {
	if !e.shipsUncommitted(inv) {
		e.ackAsArbiter(inv)
		return
	}
	cp := *inv
	go func() {
		for e.shipsUncommitted(&cp) {
			if cp.Epoch != e.agent.Epoch() {
				return // its ACK would be dropped
			}
			select {
			case <-e.closed:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
		e.ackAsArbiter(&cp)
	}()
}

// shipsUncommitted reports whether this node is inv's data source and holds a
// value in state Write, leaving or not.
func (e *Engine) shipsUncommitted(inv *wire.OwnInv) bool {
	if !isSource(e.self, inv) {
		return false
	}
	o, ok := e.st.Get(inv.Obj)
	if !ok {
		return false
	}
	_, st := o.TSnapshot()
	return st&^store.TLeaving == store.TWrite
}

// isSource reports whether node is inv's data source: the node that reports
// its version, and ships its value, with its ACK.
func isSource(node wire.NodeID, inv *wire.OwnInv) bool {
	return (inv.Mode == wire.AcquireOwner || inv.Mode == wire.AcquireReader) &&
		node == inv.PrevOwner && node != inv.Requester
}

// validate VALs every arbiter of a request but this node: the step that
// follows the requester's (or, its requester dead, the replaying driver's)
// own apply.
func (e *Engine) validate(arbiters wire.Bitmap, reqID uint64, obj wire.ObjectID, ts wire.OTS, epoch wire.Epoch) {
	val := take(e, &e.vals)
	*val = wire.OwnVal{ReqID: reqID, Obj: obj, TS: ts, Epoch: epoch}
	e.sendOthers(arbiters, val)
}

// buildAck fills in this node's ACK for the given INV. The data source
// reports its version, and attaches the value when the requester's is older
// or the INV is a replay, whose Holds may predate the requester's drop.
func (e *Engine) buildAck(ack *wire.OwnAck, inv *wire.OwnInv) {
	*ack = wire.OwnAck{
		ReqID: inv.ReqID, Obj: inv.Obj, TS: inv.TS, Epoch: inv.Epoch,
		From: e.self, Arbiters: inv.Arbiters, NewReplicas: inv.NewReplicas,
		Mode: inv.Mode,
	}
	if isSource(e.self, inv) {
		if o, ok := e.st.Get(inv.Obj); ok {
			o.Mu.Lock()
			ack.TVersion = o.TVersion()
			if inv.Recovery || inv.Holds < ack.TVersion {
				ack.HasData = true
				// No copy: object payloads are replace-only (see
				// store.Object.DataLocked) and a data-carrying ACK is
				// never self-delivered (the data source is never the
				// requester), so the transport marshals — or, in process,
				// the receiver installs — a slice whose backing array this
				// node will never mutate.
				ack.Data = o.DataLocked()
			}
			o.Mu.Unlock()
		}
	}
}

// fromSource folds an ACK into val, what the data source holds: only its ACK
// reports a version, and a shipped value outlives a later bare report.
func fromSource(val *store.Shipped, m *wire.OwnAck) {
	if m.TVersion != 0 && !val.Has {
		*val = store.Shipped{Has: m.HasData, Version: m.TVersion, Data: m.Data}
	}
}

// ---------------------------------------------------------------------------
// Arbiter side.
// ---------------------------------------------------------------------------

func (e *Engine) handleInv(m *wire.OwnInv) {
	if m.Epoch != e.agent.Epoch() {
		return // stale epoch: ignored (§4.1)
	}
	o, _ := e.st.GetOrCreate(m.Obj)
	o.Mu.Lock()

	// Idempotent re-delivery or replay: already holding / applied this
	// exact arbitration → just re-ACK.
	effective := o.OTSLocked()
	pend, arbitrating := o.PendingLocked()
	if (arbitrating && pend.TS == m.TS) || effective == m.TS {
		o.Mu.Unlock()
		e.ackOnceCommitted(m)
		return
	}

	if arbitrating && effective.Less(pend.TS) {
		effective = pend.TS
	}
	if !effective.Less(m.TS) {
		o.Mu.Unlock()
		// What beat the INV may be an arbitration of an earlier epoch, whose
		// own INVs the arbiters dropped as stale. Only a failure's view
		// change replays every pending arbitration (Resume), so after a join
		// nothing else would complete it: replay it now, in this epoch.
		if arbitrating && pend.TS == effective && pend.Epoch != m.Epoch {
			e.stReplays.Add(1)
			pend.Epoch = m.Epoch
			go e.arbReplay(m.Obj, pend, m.Epoch, e.agent.View().Live)
		}
		// Lost arbitration: ignore silently — the loser's driver NACKs its
		// requester when it learns of the winner. Do NOT NACK from here:
		// one arbiter cannot tell a genuinely losing request from a stale
		// re-delivery (an arb-replay of a superseded arbitration arrives
		// from a different sender, so it can overtake the newer INV), and a
		// NACK carries no timestamp — it would make the requester abandon a
		// WINNING arbitration, which a later stale-replay then completes
		// behind its back while it re-arbitrates: two owners. A driver that
		// mints a sub-current timestamp (stale shard entry after a
		// placement change) costs its requester one attempt timeout; the
		// retry re-resolves through a healthier driver.
		return
	}

	// The current owner refuses to hand the object over while reliable
	// commits involving it are pending (§4.1); pipelines drain first.
	// HasPendingCommit reads the object's atomic PendingCommits counter,
	// bumped under the object lock at local-commit time — there is no
	// window between the local commit and the guard seeing it.
	// Replayed INVs bypass this: the locally committed values are final
	// (an initiated reliable commit cannot abort) and replication of the
	// in-flight slots completes independently.
	if !m.Recovery && e.self == m.PrevOwner && o.LevelLocked() == wire.Owner &&
		(o.LocalOwnerLocked() != store.NoLocalOwner || e.cfg.HasPendingCommit(m.Obj)) {
		// Transfer fairness: a back-to-back local write stream would keep
		// this guard busy forever, so defer new local write grants long
		// enough for the pipeline to drain and the requester to re-probe.
		o.YieldLocalLocked(transferYield)
		o.Mu.Unlock()
		e.stNacks.Add(1)
		e.send(m.Requester, &wire.OwnNack{
			ReqID: m.ReqID, Obj: m.Obj, Epoch: m.Epoch, From: e.self,
			Reason: wire.NackPendingCommit,
		})
		return
	}

	// If this node was driving a different, smaller-ts request, that request
	// lost: its requester is NACKed below (contention resolution, §4.1).
	loser, lost := o.InvalidateLocked(store.PendingOwn{
		ReqID: m.ReqID, TS: m.TS, Requester: m.Requester, Driver: m.Driver,
		Mode: m.Mode, NewReplicas: m.NewReplicas, PrevOwner: m.PrevOwner,
		Arbiters: m.Arbiters, Epoch: m.Epoch, Holds: m.Holds, Since: time.Now(),
	}, e.self)

	// Did a VAL overtake this INV? Apply immediately if so.
	hasVal := false
	e.valsAwait.Update(m.Obj, func(awaited wire.OTS, ok bool) (wire.OTS, bool, bool) {
		if ok && awaited == m.TS {
			hasVal = true
			return awaited, false, true // consume the stashed VAL
		}
		return awaited, false, false
	})
	applied := false
	if hasVal {
		_, applied = o.GrantPendingLocked(e.self)
	}
	o.Mu.Unlock()
	if applied {
		e.recGrant(m.Obj, m.TS, m.NewReplicas)
	}

	if lost {
		e.stNacks.Add(1)
		e.send(loser.Requester, &wire.OwnNack{
			ReqID: loser.ReqID, Obj: m.Obj, Epoch: m.Epoch, From: e.self,
			Reason: wire.NackLostArbitration,
		})
	}
	e.ackOnceCommitted(m)
}

// recGrant records an applied grant in the WAL (best effort: grant records
// are recovery hints — they tell a restarted node which objects it owned,
// and it takes each back through the directory — so a failed append degrades
// nothing but restart locality). Called outside the object mutex: grant records never block the
// object lock.
func (e *Engine) recGrant(obj wire.ObjectID, ts wire.OTS, reps wire.ReplicaSet) {
	if l := e.log; l != nil {
		_ = l.Append(storage.Record{
			Kind: storage.RecGrant, Obj: obj, TS: ts,
			Replicas: reps, Level: reps.LevelOf(e.self),
		})
	}
}

func (e *Engine) handleVal(m *wire.OwnVal) {
	if m.Epoch != e.agent.Epoch() {
		return
	}
	o, _ := e.st.GetOrCreate(m.Obj)
	o.Mu.Lock()
	ots := o.OTSLocked()
	pend, arbitrating := o.PendingLocked()
	switch {
	case arbitrating && pend.TS == m.TS:
		_, applied := o.GrantPendingLocked(e.self)
		o.Mu.Unlock()
		if applied {
			e.recGrant(m.Obj, pend.TS, pend.NewReplicas)
		}
		if pend.Mode == wire.DeleteObject && !e.dir.DrivesShard(e.self, m.Obj) {
			e.st.Delete(m.Obj)
		}
	case ots == m.TS || (arbitrating && m.TS.Less(pend.TS)) || m.TS.Less(ots):
		o.Mu.Unlock() // duplicate or superseded: ignore
	default:
		// VAL overtook its INV (different senders): stash until the INV
		// arrives.
		o.Mu.Unlock()
		e.valsAwait.Update(m.Obj, func(cur wire.OTS, ok bool) (wire.OTS, bool, bool) {
			if !ok || cur.Less(m.TS) {
				return m.TS, true, false
			}
			return cur, false, false
		})
	}
}

// ---------------------------------------------------------------------------
// ACK collection (requester in the fast path, driver during recovery).
// ---------------------------------------------------------------------------

func (e *Engine) handleAck(m *wire.OwnAck) {
	if m.Epoch != e.agent.Epoch() {
		return
	}
	// Recovery ACKs are rare (arb-replays around view changes); the atomic
	// count keeps the failure-free path off the recovery lock entirely.
	if e.recovN.Load() > 0 {
		e.recovMu.Lock()
		if rs, ok := e.recov[m.ReqID]; ok && rs.ts == m.TS {
			e.handleRecoveryAckLocked(rs, m)
			e.recovMu.Unlock()
			return
		}
		e.recovMu.Unlock()
	}
	req, ok := e.pending.Get(m.ReqID)
	if !ok {
		return // late ACK for a finished/abandoned request
	}

	req.mu.Lock()
	if req.id != m.ReqID || req.applied {
		req.mu.Unlock()
		return // the record moved on to another request, or this one is done
	}
	if req.ts != m.TS {
		if !req.ts.Less(m.TS) {
			req.mu.Unlock()
			return // stale ACK from a superseded arbitration
		}
		// The driver re-arbitrated this request with a fresh, larger o_ts
		// (e.g. after an interleaved contender): adopt it and restart ACK
		// collection.
		req.ackSet = ackSet{ts: m.TS}
	}
	req.arbiters = m.Arbiters
	req.newReplicas = m.NewReplicas
	req.acked = req.acked.Add(m.From)
	fromSource(&req.val, m)
	if req.acked.Intersect(req.arbiters) != req.arbiters {
		req.mu.Unlock()
		return
	}
	req.applied = true
	got, mode := req.ackSet, req.mode
	req.mu.Unlock()

	// All expected ACKs received: the requester applies the request first
	// (before any arbiter), unblocks the application, then VALs.
	if e.applyAsRequester(m.ReqID, m.Obj, got.ts, got.newReplicas, mode, got.val) {
		e.validate(got.arbiters, m.ReqID, m.Obj, got.ts, m.Epoch)
	}
}

// applyAsRequester installs the granted level, replica set and shipped value,
// hands request id its outcome, and reports whether to VAL the arbiters. A
// stale grant is dropped, and VALed. An unbacked one is neither: id gets
// NackUnbacked, which run retries.
func (e *Engine) applyAsRequester(id uint64, obj wire.ObjectID, ts wire.OTS, reps wire.ReplicaSet, mode wire.ReqMode, val store.Shipped) (validate bool) {
	if mode == wire.DeleteObject && !e.dir.DrivesShard(e.self, obj) {
		e.st.Delete(obj)
		e.deliver(id, outcome{ok: true})
		return true
	}
	// A driver keeps the bare directory entry of an object it deleted, so
	// there the delete is a grant like any other: to nobody.
	o, _ := e.st.GetOrCreate(obj)
	o.Mu.Lock()
	applied, unbacked := o.GrantLocked(e.self, ts, reps, val)
	o.Mu.Unlock()
	if unbacked {
		e.deliver(id, outcome{reason: wire.NackUnbacked})
		return false
	}
	if applied {
		e.recGrant(obj, ts, reps)
	}
	e.deliver(id, outcome{ok: true})
	return true
}

// deliver hands out to request id's record, if this node still runs it.
func (e *Engine) deliver(id uint64, out outcome) {
	if req, ok := e.pending.Get(id); ok {
		req.deliver(id, out)
	}
}

// ---------------------------------------------------------------------------
// Failure recovery (arb-replay, §4.1).
// ---------------------------------------------------------------------------

// Pause makes the engine NACK new ownership requests (recovery window).
func (e *Engine) Pause() { e.recovering.Store(true) }

// Resume arb-replays every pending arbitration left behind by the previous
// epoch and then re-enables ownership requests. The replay INVs are
// broadcast BEFORE new REQs are accepted, so a directory driver that newly
// gained a shard in this epoch usually learns the outcome of the shard's
// in-flight arbitrations before it can be asked to drive one (the suspect
// gating in directory.Service covers the remaining cross-sender races).
func (e *Engine) Resume() {
	e.ArbReplayAll()
	e.recovering.Store(false)
}

// PruneDead removes dead nodes from all replica sets (directory entries and
// owned objects) after a view change; objects whose owner died become
// ownerless until the next write transaction takes over (§4.1).
func (e *Engine) PruneDead(live wire.Bitmap) {
	e.st.ForEach(func(o *store.Object) bool {
		o.Mu.Lock()
		o.PruneLocked(live)
		o.Mu.Unlock()
		return true
	})
}

// ArbReplayAll replays the arbitration phase of every pending ownership
// request on this node. Any arbiter can do this; INVs are idempotent, so
// concurrent replayers are harmless.
func (e *Engine) ArbReplayAll() {
	epoch := e.agent.Epoch()
	live := e.agent.View().Live
	type replay struct {
		obj  wire.ObjectID
		pend store.PendingOwn
	}
	var replays []replay
	e.st.ForEach(func(o *store.Object) bool {
		o.Mu.Lock()
		if pend, ok := o.ReplayLocked(epoch, live); ok {
			replays = append(replays, replay{obj: o.ID, pend: pend})
		}
		o.Mu.Unlock()
		return true
	})
	for _, r := range replays {
		e.stReplays.Add(1)
		e.arbReplay(r.obj, r.pend, epoch, live)
	}
}

func (e *Engine) arbReplay(obj wire.ObjectID, pend store.PendingOwn, epoch wire.Epoch, live wire.Bitmap) {
	// A replay whose data source died (PruneLocked cleared PrevOwner) takes
	// a live reader as its source, as handleReq does when the owner died.
	// Without one, nothing is shipped and nothing reported, so the requester
	// is granted its level over what it holds: nothing, or a stale value,
	// which it then serves as Valid.
	if pend.PrevOwner == wire.NoNode && (pend.Mode == wire.AcquireOwner || pend.Mode == wire.AcquireReader) {
		if o, ok := e.st.Get(obj); ok {
			o.Mu.Lock()
			cur := o.ReplicasLocked()
			o.Mu.Unlock()
			if src, ok := readerSource(cur, live, pend.Requester); ok {
				pend.PrevOwner = src
				pend.Arbiters = pend.Arbiters.Add(src)
			}
		}
	}
	// The replay's arbiter set is the original one (minus the dead) PLUS
	// the object's CURRENT shard drivers: every cross-epoch arbitration can
	// only complete through this path (epoch filters drop the in-flight
	// completion messages), so this is where a driver that newly gained the
	// shard learns the outcome. Without it the new driver's synced entry
	// would go permanently stale for this object and later mint a colliding
	// timestamp — electing an owner without invalidating the current one.
	rs := &recovState{
		reqID:    pend.ReqID,
		obj:      obj,
		ts:       pend.TS,
		arbiters: pend.Arbiters.Intersect(live).Add(e.self).Union(e.dir.DriversFor(obj).Intersect(live)),
		pend:     pend,
	}
	// A replay of an earlier epoch gives way: its ACKs are dropped as stale.
	e.recovMu.Lock()
	if old, dup := e.recov[pend.ReqID]; dup && old.pend.Epoch == epoch {
		e.recovMu.Unlock()
		return
	} else if !dup {
		e.recovN.Add(1)
	}
	e.recov[pend.ReqID] = rs
	e.recovMu.Unlock()

	inv := e.invFromPending(obj, pend)
	inv.Epoch = epoch
	inv.Driver = e.self // ACKs flow to the replaying driver
	inv.Recovery = true
	inv.Arbiters = rs.arbiters
	e.sendOthers(rs.arbiters, inv)
	e.ackOnceCommitted(inv) // to itself: the replayer may be the data source
}

func (e *Engine) handleRecoveryAckLocked(rs *recovState, m *wire.OwnAck) {
	rs.acked = rs.acked.Add(m.From)
	fromSource(&rs.val, m)
	e.checkRecoveryCompleteLocked(rs, m.Epoch)
}

// checkRecoveryCompleteLocked finalizes an arb-replay once every live arbiter
// ACKed: a live requester gets a RESP (it must apply first), a dead
// requester's request is finalized by the driver directly via VALs.
func (e *Engine) checkRecoveryCompleteLocked(rs *recovState, epoch wire.Epoch) {
	if rs.finished || rs.acked.Intersect(rs.arbiters) != rs.arbiters {
		return
	}
	rs.finished = true
	delete(e.recov, rs.reqID)
	e.recovN.Add(-1)
	live := e.agent.View().Live
	p := rs.pend
	if live.Contains(p.Requester) && p.Requester != e.self {
		e.send(p.Requester, &wire.OwnResp{
			ReqID: rs.reqID, Obj: rs.obj, TS: rs.ts, Epoch: epoch,
			Driver: e.self, Arbiters: rs.arbiters, NewReplicas: p.NewReplicas,
			Mode: p.Mode, HasData: rs.val.Has, TVersion: rs.val.Version, Data: rs.val.Data,
		})
		return
	}
	// Requester dead (or is this very node, applying first): finalize directly.
	go func() {
		if p.Requester == e.self && !e.applyAsRequester(rs.reqID, rs.obj, rs.ts, p.NewReplicas, p.Mode, rs.val) {
			return
		}
		e.validate(rs.arbiters, rs.reqID, rs.obj, rs.ts, epoch)
		// Ensure the local entry is validated too (the requester may have
		// died before applying; this node holds the pending record).
		if o, ok := e.st.Get(rs.obj); ok {
			o.Mu.Lock()
			applied := false
			if pend, ok := o.PendingLocked(); ok && pend.TS == rs.ts {
				_, applied = o.GrantPendingLocked(e.self)
			}
			o.Mu.Unlock()
			if applied {
				e.recGrant(rs.obj, rs.ts, p.NewReplicas)
			}
		}
	}()
}

// handleResp lets a live requester finish a recovered request exactly like
// the failure-free path: apply first, then VAL the arbiters — after a stale
// RESP too, whose arbiters the first RESP's VAL may have missed.
func (e *Engine) handleResp(m *wire.OwnResp) {
	if m.Epoch != e.agent.Epoch() {
		return
	}
	if e.applyAsRequester(m.ReqID, m.Obj, m.TS, m.NewReplicas, m.Mode,
		store.Shipped{Has: m.HasData, Version: m.TVersion, Data: m.Data}) {
		e.validate(m.Arbiters, m.ReqID, m.Obj, m.TS, m.Epoch)
	}
}
