// Package commit implements Zeus' reliable commit protocol (§5): the
// propagation of a locally committed write transaction to its followers (the
// readers of all modified objects) via idempotent invalidations.
//
// Failure-free flow (Figure 4): after the local commit, the coordinator
// broadcasts R-INV {tx_id, e_id, followers, updates} and keeps it; followers
// apply newer versions, flip the objects to Invalid, store the R-INV and
// R-ACK. Once all followers ACKed, the coordinator validates locally and
// broadcasts R-VAL; followers validate (iff the version is unchanged) and
// discard the stored R-INV.
//
// Pipelining (§5.2, Figure 5): the coordinator never waits for replication —
// tx_id = ⟨local_tx_id, node_id⟩ (extended per worker thread, §7) orders the
// slots of one pipeline; followers apply an R-INV only once the previous slot
// of that pipe is applied or validated, with the prev-VAL bit / R-VAL
// inclusion rule covering followers that see only part of a pipe's stream.
//
// Recovery (§5.1): after an epoch bump, every live node replays the stored
// R-INVs of dead coordinators (epoch rewritten, dead followers pruned). All
// R-INVs of a transaction are idempotent — same tx_id and t_versions — so
// concurrent replayers are harmless. When a node has no pending commits left
// from dead nodes it reports recovery-done; the ownership protocol resumes
// only after every live node has reported (the membership barrier).
//
// Concurrency (§5.2/§7): the engine holds no global lock on any hot path.
// Pipelines are looked up lock-free (copy-on-write maps — pipes are created
// once per worker and read per message) and each outPipe/inPipe carries its
// own mutex, so commits and deliveries on independent pipes never contend.
// Per-object pending state lives on store.Object (an atomic counter), and
// only recovery (the replay table) takes a dedicated slow-path lock.
package commit

import (
	"errors"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/obs"
	"zeus/internal/retry"
	"zeus/internal/safetime"
	"zeus/internal/shardmap"
	"zeus/internal/storage"
	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// Stats aggregates engine counters.
type Stats struct {
	Committed       uint64 // slots fully validated at this coordinator
	Invalidations   uint64 // R-INVs applied as a follower
	Replays         uint64 // slots replayed for dead coordinators
	Resends         uint64 // crash-aware R-INV re-broadcasts
	BytesReplicated uint64
}

// MaxPipelineDepth bounds the unvalidated slots per pipeline. The paper's
// pipelines are implicitly bounded by NIC queues; here the bound provides
// backpressure so a coordinator cannot outrun its followers indefinitely
// (which would keep objects pending forever and starve ownership requests).
const MaxPipelineDepth = 256

// resendPolicy paces the crash-aware slot resender: R-INVs and R-ACKs that
// cross a membership view change are dropped by the epoch filters on either
// side, so every unacked slot is periodically re-broadcast with the *current*
// epoch until its surviving followers acknowledge. The transport already
// guarantees delivery, so this only has to outlive epoch transitions — a
// gentle exponential keeps the steady-state overhead negligible.
var resendPolicy = retry.Policy{
	InitialBackoff: time.Millisecond,
	MaxBackoff:     16 * time.Millisecond,
	Multiplier:     2,
	Jitter:         0.25,
}

// backpressurePolicy paces the pipeline-full yield in Commit: fixed 20 µs
// probes, no growth, no jitter (retrydiscipline: all engine pacing goes
// through internal/retry).
var backpressurePolicy = retry.Policy{
	InitialBackoff: 20 * time.Microsecond,
	MaxBackoff:     20 * time.Microsecond,
	Multiplier:     1,
	Jitter:         -1,
}

// maxPeers bounds the per-peer coalescer array (wire.Bitmap caps a
// deployment at 64 nodes anyway).
const maxPeers = 64

// peerQueue is one peer's slice of the outbound coalescer. Each queue has
// its own lock so workers enqueueing to different followers never contend;
// two pipelines sharing a follower contend only on that follower's queue.
//
// msgs and spare are the queue's two buffers: a flush takes msgs, leaves
// spare in its place for the enqueues that arrive meanwhile, and parks the
// flushed slice (cleared) as the next spare once SendBatch returned — the
// transport keeps no reference to it (transport.Transport.SendBatch), so steady
// state enqueues into arrays it already owns instead of regrowing a fresh
// one after every flush.
//
// sending marks the one flusher that is putting this peer's messages on the
// link: batches taken under mu are sent after it is released, so two flushers
// at once could deliver a later batch ahead of an earlier one. A flusher that
// finds the flag set leaves the messages queued; the sender looks at the
// queue again before it clears the flag, so they go out behind its batch.
type peerQueue struct {
	mu      sync.Mutex
	msgs    []wire.Msg
	spare   []wire.Msg
	sending bool
}

// maxSpareCap bounds the buffer a peer queue keeps between flushes (a few
// count-triggered flushes' worth); a burst's larger array goes to the GC.
const maxSpareCap = 4 * coalesceFlushCount

// Engine runs the reliable commit protocol on one node.
type Engine struct {
	self  wire.NodeID
	st    *store.Store
	tr    transport.Transport
	agent *viewsvc.Agent

	// Pipelines: copy-on-write maps (lock-free lookup, mutex-serialized
	// insertion — a pipe is created once and read per message). Per-slot
	// state is guarded by each pipe's own mutex.
	outPipes shardmap.COW[wire.Worker, *outPipe]
	inPipes  shardmap.COW[wire.PipeID, *inPipe]

	// Recovery slow path: the replay table is only touched around view
	// changes, never on the failure-free hot path.
	replayMu    sync.Mutex
	replays     map[wire.TxID]*replaySlot
	replayEpoch wire.Epoch
	replayN     atomic.Int32 // fast-path probe: len(replays) without the lock

	// Outbound coalescer: R-INV fan-out, R-ACKs and R-VALs accumulate in
	// per-peer queues and leave as transport batches — either when a
	// delivery tick's worth piled up (coalesceFlushCount) or within
	// coalesceInterval. The pipeline never waits for any of these messages
	// (§5.2), so the added latency is invisible to transactions while the
	// per-message transport cost is amortized across the batch. The queues
	// are locked per peer (see peerQueue); coCount is the cross-peer total
	// that triggers count-based flushes.
	coQ     [maxPeers]peerQueue
	coDirty atomic.Uint64 // bitmask of peers with queued messages
	coCount atomic.Int32  // approximate total (flush-threshold heuristic only)
	coArmed atomic.Bool   // a timed flush cycle is pending
	coWake  chan struct{}

	closed chan struct{}
	once   sync.Once

	// The Config fields, fixed at construction: the durability WAL (nil
	// disables durability), the durable incarnation stamped into new
	// pipelines' PipeID.Incar (zero falls back to the view epoch at pipe
	// creation), the node's hybrid-logical clock, and whether commits are
	// timestamped at all.
	log   *storage.Log
	incar wire.Epoch
	clock *safetime.Clock
	ts    bool

	// obs holds the cached metric handles the hot path records into. nil
	// (no Config.Obs) keeps the seed write path: every record site is gated
	// on one nil check.
	obs *engineObs

	stCommitted atomic.Uint64
	stInvals    atomic.Uint64
	stReplays   atomic.Uint64
	stResends   atomic.Uint64
	stBytes     atomic.Uint64
}

// coalesceFlushCount / coalesceInterval bound the outbound coalescer: flush
// once this many messages queued, or this long after the first one.
const (
	coalesceFlushCount = 32
	coalesceInterval   = 100 * time.Microsecond
)

// outPipe is a coordinator-side pipeline (one per worker thread, §7).
type outPipe struct {
	id wire.PipeID

	mu        sync.Mutex
	nextLocal uint64
	slots     map[uint64]*Slot
	// order is the registration-order FIFO of the same slots (CTS
	// ascending — timestamps are minted under mu). The AppliedWM sweep
	// walks it from the front and stops at the watermark instead of
	// iterating the slots map, whose cost is capacity- not
	// size-proportional and never shrinks. The live window is order[head:]
	// (see live); validated slots are trimmed off its front by
	// compactLocked at the next mu acquisition.
	order []*Slot
	head  int
	// swept records, per follower, the highest AppliedWM a sweep has
	// processed. A follower's watermark is one of this pipe's own applied
	// CTSs, and every slot registered later mints a strictly larger CTS,
	// so slots at or below the cursor never need re-sweeping — without it
	// each ack would re-walk the whole in-flight window (every open slot
	// trails the follower's applied watermark under pipelining).
	swept map[wire.NodeID]uint64
	// vals is where completeSlot takes each slot's R-VAL from, and fresh
	// where Commit takes each Slot from (both under mu).
	vals  wire.Chunk[wire.CommitVal]
	fresh wire.Chunk[Slot]
}

// compactLocked drops validated slots off the front of the order FIFO.
// Amortized O(1): each slot is appended once, trimmed once and moved at most
// once. The front advances by index rather than by reslicing, so a pipeline
// that drains — every commit of a shallow one — rewinds into the array it
// already has instead of allocating a new FIFO; only an array a burst grew
// past the pipeline bound is let go.
func (p *outPipe) compactLocked() {
	for p.head < len(p.order) && p.order[p.head].valed {
		p.order[p.head] = nil // release the slot to the GC
		p.head++
	}
	switch {
	case p.head == len(p.order):
		if cap(p.order) > MaxPipelineDepth {
			p.order = nil
		} else {
			p.order = p.order[:0]
		}
		p.head = 0
	case p.head >= MaxPipelineDepth:
		// A pipeline that never drains: slide the live window down so the
		// dead prefix does not grow with every append.
		n := copy(p.order, p.order[p.head:])
		clear(p.order[n:])
		p.order = p.order[:n]
		p.head = 0
	}
}

// live is the order FIFO's live window (compactLocked trims its front).
func (p *outPipe) live() []*Slot { return p.order[p.head:] }

// Slot is one reliable commit in flight on a coordinator pipeline — the
// handle Commit returns. The first R-INV, its Updates (up to inlineUpdates of
// them) and the resend pacer live inside it, and the completion channel
// exists only if somebody asks for it (Done). Slots are carved from the
// pipe's wire.Chunk, so a commit costs a sixteenth of an allocation. A slot is
// handed out once and never reused — the hub's followers hold &slot.first for
// as long as they store the R-INV, which rules out any recycling — and the GC
// frees a chunk when its last slot dies; the price is that a stuck slot keeps
// its ChunkRecords-1 neighbours (≈ 6.5 KB) and the versions they published
// alive. 416 bytes, so 16 of them and Go's malloc header fit the 6784-byte
// size class (TestSlotSize).
type Slot struct {
	pipe *outPipe
	// inv is the R-INV to (re)send. It points at first until a view change
	// rewrites epoch and followers, which installs a fresh copy instead
	// (copy-on-write, OnViewChange/resendLoop): the original may still be in
	// flight, and on the zero-copy hub the followers hold this very struct.
	inv   *wire.CommitInv
	first wire.CommitInv
	// updates backs first.Updates for a write set that fits; a larger one
	// gets a heap slice.
	updates   [inlineUpdates]wire.Update
	followers wire.Bitmap
	acked     wire.Bitmap
	// extraVal are nodes to include in this slot's R-VAL broadcast even
	// though they were not followers: they follow the *next* slot and need
	// the R-VAL to apply it (§5.2).
	extraVal wire.Bitmap
	valed    bool
	// finished flips (under pipe.mu) once completeSlot is through; done is
	// the channel Done handed out before that, nil if nobody asked.
	finished bool
	done     chan struct{}
	// Crash-aware resend pacing (see resendPolicy): the next re-broadcast is
	// due resendAfter past openedAt, when Commit registered the slot — which
	// also feeds the phase-latency histograms and the watchdog's age scan.
	// (An offset, not a second time.Time: it keeps the Slot in its size
	// class.)
	retr        retry.Retrier
	resendAfter time.Duration
	openedAt    time.Time
	// tr is the sampled transaction's trace (nil for unsampled commits).
	tr *obs.Trace
}

// inlineUpdates is the write set a Slot holds without a second allocation:
// the workloads' transactions write at most three objects (Smallbank's
// amalgamate), and core keeps as many accesses inline in its Tx.
const inlineUpdates = 4

// closedChan is what Done returns for a slot that already validated: one
// shared, pre-closed channel instead of one allocation per commit.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Tx returns the transaction id the pipeline assigned to the commit.
func (s *Slot) Tx() wire.TxID { return s.first.Tx }

// Done returns a channel that is closed once the slot validated: every live
// follower acknowledged, the local objects flipped back to Valid and the
// R-VAL is queued. The channel is made on the first call — tests and drain
// paths wait on it, the transaction hot path never asks.
func (s *Slot) Done() <-chan struct{} {
	p := s.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.done == nil {
		if s.finished {
			s.done = closedChan
		} else {
			s.done = make(chan struct{})
		}
	}
	return s.done
}

// inPipe tracks one remote coordinator pipeline at a follower.
type inPipe struct {
	mu sync.Mutex
	// stored holds applied-but-unvalidated R-INVs (pending commits).
	stored map[uint64]*wire.CommitInv
	// done marks slots applied or validated, compacted via watermark.
	done      map[uint64]bool
	watermark uint64
	// waiting buffers R-INVs whose predecessor has not been seen yet.
	waiting map[uint64]*wire.CommitInv
	// unlogged marks applied slots whose WAL append has not succeeded yet.
	// A slot enters on apply (durability armed) and leaves once an Append
	// covering it returns; an entry lingering here means the first append
	// failed, so the next delivery of the same R-INV retries it. Duplicates
	// of already-durable slots are *not* in this map and re-ACK without
	// re-appending — a resend storm must not grow the WAL.
	unlogged map[uint64]*wire.CommitInv
	// lastCTS is the highest CTS applied on this pipe, piggybacked on every
	// R-ACK (CommitAck.AppliedWM). CTSs increase along a pipe and slots
	// apply in pipe order, so lastCTS vouches for every earlier slot.
	lastCTS uint64
	// wdSeen is watchdog-only state: when the debt scanner first observed
	// each stored R-INV (under mu, but ONLY from watchdogScan — the apply
	// and validate hot paths never touch it, so obs costs nothing here).
	wdSeen map[uint64]time.Time
	// acks is where ackDurable takes each R-ACK from (under mu).
	acks wire.Chunk[wire.CommitAck]
}

// Config is what the node hands the engine at construction; the zero value
// is a memory-only, untimestamped, unobserved engine with a private clock.
type Config struct {
	// Clock is the node's hybrid-logical clock, shared with the ownership
	// engine and the snapshot-read path: it mints the commit timestamp (CTS)
	// stamped into every R-INV and merges CTSs observed as a follower, so
	// causally-related commits carry increasing timestamps across owner
	// migration. Nil installs a private clock.
	Clock *safetime.Clock
	// Log is the node's durability WAL. Followers persist R-INV updates
	// before acking (ackDurable) and both sides record committed versions,
	// so a restarted node replays every write it ever acknowledged. The
	// engine never closes the log.
	Log *storage.Log
	// Incarnation pins new coordinator pipelines to a durable per-process
	// incarnation number (storage.Recovered.Incarnation) instead of the view
	// epoch. The counter advances on every restart over the same store, so
	// a crashed-and-restarted coordinator can never alias its previous
	// life's pipelines at the followers — even when the restart beat the
	// failure detector and the view epoch never bumped. A node must not
	// alternate between durable and memory-only lifetimes: the counter and
	// the epoch fallback draw from independent sequences.
	Incarnation uint64
	// Timestamps turns on commit timestamping: every R-INV carries a CTS
	// minted from the clock and validated versions are published to the
	// object version rings (the substrate of MVCC snapshot reads). A
	// deployment that never snapshot-reads leaves it off and skips the clock
	// read on every commit and the ring insert on every validation. It must
	// be uniform across the cluster: a CTS-0 commit is invisible to the
	// ring, so a mixed cluster would serve snapshots that miss other nodes'
	// writes.
	Timestamps bool
	// Obs, when non-nil, receives the engine's metrics, traces and watchdog
	// incidents.
	Obs *obs.Registry
}

// New creates a reliable-commit engine.
func New(self wire.NodeID, st *store.Store, tr transport.Transport, agent *viewsvc.Agent, cfg Config) *Engine {
	e := &Engine{
		self:    self,
		st:      st,
		tr:      tr,
		agent:   agent,
		replays: make(map[wire.TxID]*replaySlot),
		coWake:  make(chan struct{}, 1),
		closed:  make(chan struct{}),
		log:     cfg.Log,
		incar:   wire.Epoch(cfg.Incarnation),
		clock:   cfg.Clock,
		ts:      cfg.Timestamps,
	}
	if e.clock == nil {
		e.clock = new(safetime.Clock)
	}
	if cfg.Obs != nil {
		e.obs = newEngineObs(e, cfg.Obs)
	}
	go e.resendLoop()
	go e.coalesceLoop()
	return e
}

// Close flushes coalesced outbound messages and stops the background loops.
func (e *Engine) Close() {
	e.once.Do(func() {
		close(e.closed)
		e.flushOut()
	})
}

// enqueue queues one outbound protocol message for peer-coalesced sending.
func (e *Engine) enqueue(to wire.NodeID, m wire.Msg) {
	if to == e.self || int(to) >= maxPeers {
		return
	}
	q := &e.coQ[to]
	q.mu.Lock()
	q.msgs = append(q.msgs, m)
	q.mu.Unlock()
	e.coDirty.Or(1 << to)
	if e.coCount.Add(1) >= coalesceFlushCount {
		e.flushOut()
		return
	}
	// Arm a timed flush unless one is already pending. The flag (not the
	// approximate count) carries the liveness guarantee: every enqueued
	// message is followed by a flush within coalesceInterval, because the
	// pending cycle disarms *before* it flushes — an enqueue racing with
	// the flush re-arms the next cycle.
	if !e.coArmed.Swap(true) {
		select {
		case e.coWake <- struct{}{}:
		default:
		}
	}
}

// flushOut drains the coalescer, sending each peer's queue as one batch.
// Only peers flagged dirty are visited; an enqueue racing with the swap
// re-flags its peer (the Or runs after the append), so at worst a queue is
// visited empty once or left for the already-armed next cycle. One flusher
// sends to a peer at a time (peerQueue.sending), which keeps the peer's
// batches in queue order on the link; what a second flusher leaves behind is
// sent by the first before it lets go, so no message waits for a later flush.
func (e *Engine) flushOut() {
	dirty := e.coDirty.Swap(0)
	for dirty != 0 {
		to := bits.TrailingZeros64(dirty)
		dirty &^= 1 << to
		q := &e.coQ[to]
		q.mu.Lock()
		if q.sending {
			q.mu.Unlock()
			continue
		}
		q.sending = true
		for len(q.msgs) > 0 {
			msgs := q.msgs
			q.msgs, q.spare = q.spare, nil
			q.mu.Unlock()
			e.coCount.Add(int32(-len(msgs)))
			_ = e.tr.SendBatch(wire.NodeID(to), msgs)
			park := cap(msgs) <= maxSpareCap // a burst's array goes to the GC
			if park {
				clear(msgs) // a parked buffer must not keep the sent messages alive
			}
			q.mu.Lock()
			if park && q.spare == nil {
				q.spare = msgs[:0]
			}
		}
		q.sending = false
		q.mu.Unlock()
	}
}

// coalesceLoop flushes the outbound coalescer at most coalesceInterval after
// the first message of a batch was queued (count-triggered flushes happen
// inline in enqueue).
func (e *Engine) coalesceLoop() {
	// One timer for the loop's life: a shallow pipeline arms a cycle per
	// commit, and time.After would allocate a timer and a channel for each.
	t := time.NewTimer(coalesceInterval)
	defer t.Stop()
	for {
		select {
		case <-e.closed:
			return
		case <-e.coWake:
		}
		t.Reset(coalesceInterval)
		select {
		case <-e.closed:
			e.flushOut()
			return
		case <-t.C:
		}
		e.coArmed.Store(false) // before the flush: racing enqueues re-arm
		e.flushOut()
	}
}

// Register installs the engine's handlers on the router. The delivery-tick
// hook flushes the outbound coalescer the moment an inbound frame's messages
// are all handled, so a batch of R-INVs is answered by one batch of R-ACKs
// (and a batch of R-ACKs by one batch of R-VALs) with no timer in the loop.
func (e *Engine) Register(r *transport.Router) {
	r.HandleMany(e.Handle, wire.KindCommitInv, wire.KindCommitAck, wire.KindCommitVal)
	r.OnTick(e.flushOut)
}

// Handle dispatches one inbound reliable-commit message.
func (e *Engine) Handle(from wire.NodeID, m wire.Msg) {
	switch v := m.(type) {
	case *wire.CommitInv:
		e.handleInv(from, v)
	case *wire.CommitAck:
		e.handleAck(v)
	case *wire.CommitVal:
		e.handleVal(v)
	}
}

// PendingReplays returns how many dead-coordinator replays are still
// unvalidated (0 in steady state; diagnostics and drain waits).
func (e *Engine) PendingReplays() int {
	e.replayMu.Lock()
	defer e.replayMu.Unlock()
	return len(e.replays)
}

// Stats returns a snapshot of counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Committed:       e.stCommitted.Load(),
		Invalidations:   e.stInvals.Load(),
		Replays:         e.stReplays.Load(),
		Resends:         e.stResends.Load(),
		BytesReplicated: e.stBytes.Load(),
	}
}

func (e *Engine) pipe(w wire.Worker) *outPipe {
	return e.outPipes.GetOrCreate(w, func() *outPipe {
		// Incar pins the pipe to this coordinator incarnation: a restarted
		// node's pipes must not alias its previous life's at the followers
		// (wire.PipeID). The durable storage incarnation is the primary
		// source — it advances on every restart even when the restart beat
		// the failure detector and the view epoch never bumped. Memory-only
		// nodes fall back to the epoch read at pipe creation, which relies
		// on rejoining always bumping it.
		incar := e.incar
		if incar == 0 {
			incar = e.agent.Epoch()
		}
		return &outPipe{id: wire.PipeID{Node: e.self, Worker: w, Incar: incar}, nextLocal: 1, slots: make(map[uint64]*Slot)}
	})
}

func (e *Engine) inPipe(id wire.PipeID) *inPipe {
	return e.inPipes.GetOrCreate(id, func() *inPipe {
		return &inPipe{stored: make(map[uint64]*wire.CommitInv), done: make(map[uint64]bool), waiting: make(map[uint64]*wire.CommitInv), unlogged: make(map[uint64]*wire.CommitInv)}
	})
}

// HasPending reports whether reliable commits involving obj are in flight at
// this coordinator. The ownership protocol NACKs transfers while true (§4.1).
// The check is an atomic counter read on the object itself — no engine state,
// no object lock — so it is safe from callers holding other object mutexes.
func (e *Engine) HasPending(obj wire.ObjectID) bool {
	o, ok := e.st.Get(obj)
	return ok && o.PendingCommits.Load() > 0
}

// PendingSlots returns the number of unvalidated coordinator slots.
func (e *Engine) PendingSlots() int {
	n := 0
	e.outPipes.Range(func(_ wire.Worker, p *outPipe) bool {
		p.mu.Lock()
		n += len(p.slots)
		p.mu.Unlock()
		return true
	})
	return n
}

// errSlotsPending drives WaitIdle's retry.Do poll; never escapes.
var errSlotsPending = errors.New("commit: coordinator slots pending")

// WaitIdle blocks until every coordinator slot validated or timeout elapses.
func (e *Engine) WaitIdle(timeout time.Duration) bool {
	e.flushOut() // push queued R-INVs out instead of waiting a tick
	if timeout <= 0 {
		return e.PendingSlots() == 0
	}
	err := retry.Do(nil, retry.Policy{
		InitialBackoff: 100 * time.Microsecond,
		MaxBackoff:     time.Millisecond,
		Jitter:         -1,
		MaxElapsed:     timeout,
	}, nil, func(int) error {
		if e.PendingSlots() > 0 {
			return errSlotsPending
		}
		return nil
	})
	return err == nil
}

// Commit starts the reliable commit of a locally committed transaction on
// worker w's pipeline and returns immediately (the pipeline never blocks the
// application, §5.2). The store must already hold the new t_data/t_version
// with t_state = Write; PendingCommits must already be incremented by the
// caller under the object locks (that counter is the engine's only per-object
// pending state — see HasPending). The updates are copied into the slot (their
// Data is not: the engine and the followers share the published version), so
// the caller's slice can live on its stack. The returned slot names the
// transaction (Tx) and reports validation (Done: tests and drain paths wait on
// it; applications do not).
//
// tr is a sampled transaction's trace recorder, nil for the unsampled majority
// (Trace.Event is nil-receiver-safe). The slot stamps "inv" after the R-INV
// fan-out and "ack"/"val"/"applied" through completeSlot, and offers the
// finished trace to the registry's slowest-N table.
func (e *Engine) Commit(w wire.Worker, updates []wire.Update, followers wire.Bitmap, tr *obs.Trace) *Slot {
	p := e.pipe(w)
	live := e.agent.View().Live
	epoch := e.agent.Epoch()
	followers = followers.Remove(e.self).Intersect(live)

	// Backpressure: a full pipeline means the followers lag; yield until
	// R-ACKs drain some slots. This bounds memory and keeps the pending
	// window of every object finite. The yield is paced through the shared
	// retry machinery (fixed cadence: the wait ends as soon as R-ACKs drain
	// a slot, so growth would only add drain latency); the Retrier is
	// allocated lazily because the fast path never blocks here.
	var bp *retry.Retrier
	for {
		p.mu.Lock()
		if len(p.slots) < MaxPipelineDepth {
			break
		}
		p.mu.Unlock()
		if bp == nil {
			bp = backpressurePolicy.Start()
		}
		wait, _ := bp.Next()
		_ = retry.Sleep(nil, wait, nil)
	}
	local := p.nextLocal
	p.nextLocal++

	// prev-VAL rule (§5.2): if the previous slot's R-VAL has already been
	// broadcast (or there is no previous slot), piggyback the bit so
	// followers seeing only part of the stream can apply immediately.
	// Otherwise make sure this slot's followers receive the previous
	// slot's R-VAL by adding them to its broadcast set.
	prevVal := true
	if prev, ok := p.slots[local-1]; ok && !prev.valed {
		prevVal = false
		prev.extraVal = prev.extraVal.Union(followers.Remove(e.self))
	}

	// The CTS is minted while p.mu is held, atomically with slot
	// registration: Watermark reads the clock first and then scans open
	// slots, so a timestamp must never exist without its slot being
	// visible — otherwise a watermark could vouch for a commit it has
	// never seen. CTS 0 (timestamping off) keeps the seed write path:
	// no clock read here, no ring publish at validation.
	var cts uint64
	if e.ts {
		cts = e.clock.Next()
	}

	slot := p.fresh.Take()
	*slot = Slot{
		pipe: p,
		first: wire.CommitInv{Tx: wire.TxID{Pipe: p.id, Local: local}, Epoch: epoch,
			Followers: followers, PrevVal: prevVal, CTS: cts},
		followers: followers, retr: resendPolicy.Begin(), openedAt: time.Now(), tr: tr,
	}
	inv := &slot.first
	if len(updates) <= inlineUpdates {
		inv.Updates = slot.updates[:copy(slot.updates[:], updates)]
	} else {
		inv.Updates = slices.Clone(updates)
	}
	slot.inv = inv
	slot.resendAfter, _ = slot.retr.Next() // resendPolicy never gives up
	p.slots[local] = slot
	// Trim before appending: a drained FIFO rewinds, and the new slot lands
	// at the front of the array it already has.
	//lint:allow lockedsuffix p.mu is held: the backpressure loop above exits via break with the lock taken
	p.compactLocked()
	p.order = append(p.order, slot)
	p.mu.Unlock()

	if followers.Count() == 0 {
		// No live followers (replication degree 1 or all backups dead):
		// the commit is trivially reliable.
		e.completeSlot(slot)
		return slot
	}
	// Batched fan-out: hand the R-INV to the per-peer coalescer, so
	// back-to-back pipeline slots to the same follower ride one transport
	// batch. The byte accounting is the exact encoded size per follower.
	size, _ := wire.CommitSize(inv)
	for n := range followers.Each {
		e.enqueue(n, inv)
	}
	fanout := uint64(followers.Count())
	e.stBytes.Add(uint64(size) * fanout)
	if ob := e.obs; ob != nil {
		ob.fanout.Add(fanout)
	}
	tr.Event("inv")
	// Shallow pipeline = nothing behind this slot to coalesce with: push the
	// R-INV out now (plus any still-queued R-VALs). A busy pipeline leaves
	// the fan-out to the count threshold and the inbound R-ACK tick.
	p.mu.Lock()
	shallow := len(p.slots) <= 1
	p.mu.Unlock()
	if shallow {
		e.flushOut()
	}
	return slot
}

// completeSlot validates a coordinator slot: flip local objects whose version
// is unchanged back to Valid, publish the committed versions into the MVCC
// rings, release pending counts, broadcast R-VAL. The slot is removed from
// the pipe only AFTER the object flips and ring publications: Watermark
// counts every present slot as open, so deleting first would let a
// watermark advance past a version that is not ring-published yet — a
// snapshot reader at that watermark would miss the commit.
func (e *Engine) completeSlot(s *Slot) {
	p := s.pipe
	p.mu.Lock()
	if s.valed {
		p.mu.Unlock()
		return
	}
	s.valed = true
	// OnViewChange and the resend loop repoint s.inv and s.followers under
	// p.mu; everything below works from this one consistent reading.
	inv, targets := s.inv, s.followers.Union(s.extraVal)
	val := p.vals.Take()
	p.mu.Unlock()
	cts := inv.CTS

	s.tr.Event("ack")
	if ob := e.obs; ob != nil {
		ob.ackNS.RecordSince(s.openedAt)
	}

	for _, u := range inv.Updates {
		if o, ok := e.st.Get(u.Obj); ok {
			o.Mu.Lock()
			o.ValidateWriteLocked(cts, u.Version, u.Data)
			if o.PendingCommits.Load() > 0 {
				o.PendingCommits.Add(-1)
			}
			o.Mu.Unlock()
		}
	}

	// Coordinator-side commit record carries the data: the coordinator
	// never logged a RecInv for its own write. Cluster-wide durability does
	// not depend on it (followers persisted the updates before acking);
	// it is what a restarted coordinator re-arms from when no replica of the
	// object is live anywhere (core.reclaimOne).
	s.tr.Event("val")
	e.recCommitted(inv.Updates, true, cts)

	*val = wire.CommitVal{Tx: s.Tx(), Epoch: inv.Epoch} // written once, here, before any enqueue
	for n := range targets.Each {
		e.enqueue(n, val) // coalesced with neighbouring slots' R-VALs
	}
	e.stCommitted.Add(1)
	s.tr.Event("applied")
	if ob := e.obs; ob != nil {
		ob.appliedNS.RecordSince(s.openedAt)
		ob.reg.Traces.Offer(s.tr)
	}

	p.mu.Lock()
	delete(p.slots, s.Tx().Local)
	s.finished = true
	if s.done != nil {
		close(s.done)
	}
	p.mu.Unlock()
}

// Watermark computes this node's applied watermark W: every reliable commit
// this node is responsible for completing (its own open coordinator slots
// plus any dead-coordinator replays it carries) with CTS ≤ W has been
// validated — applied and ring-published at all followers and locally. The
// clock is read FIRST, then open slots lower the bound: a slot registered
// after the read minted its CTS after (hence above) the candidate, so the
// result is safe against concurrent commits. Taken over all live nodes
// (min, monotone — safetime.Tracker), W yields the snapshot-read safe-time.
func (e *Engine) Watermark() uint64 {
	w := e.clock.Next()
	e.outPipes.Range(func(_ wire.Worker, p *outPipe) bool {
		p.mu.Lock()
		// CTSs ascend along the registration FIFO, so after trimming
		// validated slots off the head the front entry carries the
		// pipe's minimum open CTS — no need to scan the rest.
		p.compactLocked()
		if open := p.live(); len(open) > 0 {
			if cts := open[0].inv.CTS; cts != 0 && cts <= w {
				w = cts - 1
			}
		}
		p.mu.Unlock()
		return true
	})
	if e.replayN.Load() != 0 {
		e.replayMu.Lock()
		for _, rs := range e.replays {
			if cts := rs.inv.CTS; cts != 0 && cts <= w {
				w = cts - 1
			}
		}
		e.replayMu.Unlock()
	}
	return w
}

// ---------------------------------------------------------------------------
// Follower side.
// ---------------------------------------------------------------------------

func (e *Engine) handleInv(from wire.NodeID, m *wire.CommitInv) {
	if m.Epoch != e.agent.Epoch() {
		return
	}
	p := e.inPipe(m.Tx.Pipe)
	p.mu.Lock()
	if p.isDone(m.Tx.Local) || p.stored[m.Tx.Local] != nil {
		// Already applied (replay or duplicate): just re-ACK (§5.1). Still
		// routed through ackDurable so a slot whose first WAL append failed
		// gets it retried (unlogged); an already-durable slot re-ACKs
		// without re-appending, so resend storms cannot grow the WAL.
		e.ackDurable(p, from, m)
		p.mu.Unlock()
		return
	}
	// Pipeline ordering (§5.2): apply iff the previous slot was applied or
	// validated here, or the coordinator vouched via the prev-VAL bit.
	// Replayed R-INVs apply immediately: version checks keep them safe and
	// affected objects stay Invalid until their own R-VAL anyway.
	ready := m.Tx.Local == 1 || m.PrevVal || m.Replay ||
		p.isDone(m.Tx.Local-1) || p.stored[m.Tx.Local-1] != nil
	if !ready {
		p.waiting[m.Tx.Local] = m
		p.mu.Unlock()
		return
	}
	e.applyInvLocked(p, from, m)
	p.mu.Unlock()
}

// applyInvLocked applies one R-INV (p.mu held), ACKs, and drains any waiting
// successors that became applicable.
func (e *Engine) applyInvLocked(p *inPipe, from wire.NodeID, m *wire.CommitInv) {
	e.applyOneLocked(p, m)
	e.ackDurable(p, from, m)

	// A successor may have been waiting on this slot.
	for {
		next, ok := p.waiting[m.Tx.Local+1]
		if !ok {
			break
		}
		delete(p.waiting, m.Tx.Local+1)
		m = next
		e.applyOneLocked(p, m)
		e.ackDurable(p, m.Tx.Pipe.Node, m)
	}
}

// applyOneLocked stages one R-INV's updates and records it in the pipe
// (p.mu held).
func (e *Engine) applyOneLocked(p *inPipe, m *wire.CommitInv) {
	for _, u := range m.Updates {
		o, _ := e.st.GetOrCreate(u.Obj)
		o.Mu.Lock()
		o.StageInvLocked(m.CTS, u.Version, u.Data)
		o.Mu.Unlock()
	}
	e.clock.Update(m.CTS)
	if m.CTS > p.lastCTS {
		p.lastCTS = m.CTS
	}
	p.stored[m.Tx.Local] = m
	if e.log != nil && len(m.Updates) > 0 {
		p.unlogged[m.Tx.Local] = m
	}
	e.stInvals.Add(1)
}

// ackDurable is the single choke point between applying an R-INV and
// acknowledging it (zeuslint ackdurable; p.mu held): when durability is
// armed and the slot is still in p.unlogged, the updates are appended to
// the WAL — group-committed, durable on return — strictly before the R-ACK
// is queued, so a coordinator can never observe an acknowledgement for a
// write the follower could forget in a crash. A slot already logged (not
// in unlogged) re-ACKs without touching the WAL: duplicates and resend
// storms must not grow it. The ACK itself stays coalesced: one delivery
// tick's worth of R-ACKs leaves as a single transport batch.
func (e *Engine) ackDurable(p *inPipe, to wire.NodeID, m *wire.CommitInv) {
	if l := e.log; l != nil {
		if inv, needs := p.unlogged[m.Tx.Local]; needs {
			recs := make([]storage.Record, len(inv.Updates))
			for i, u := range inv.Updates {
				// Data aliases the applied update; safe because store data
				// is replace-only and WAL records are frozen at Append.
				recs[i] = storage.Record{Kind: storage.RecInv, Obj: u.Obj, Version: u.Version, Data: u.Data, CTS: inv.CTS}
			}
			if l.Append(recs...) != nil {
				// No durability, no ACK: stay silent and let the coordinator
				// resend (the slot stays in unlogged, so the retransmit
				// retries the append). Failing storage degrades liveness,
				// never safety.
				return
			}
			delete(p.unlogged, m.Tx.Local)
		}
	}
	ack := p.acks.Take()
	*ack = wire.CommitAck{Tx: m.Tx, Epoch: m.Epoch, From: e.self, AppliedWM: p.lastCTS}
	e.enqueue(to, ack)
}

// recCommitted records validated versions in the WAL (best effort: a
// restarted owner re-arms from them only when no replica of the object is
// live anywhere; R-INV durability is what acks depend on).
func (e *Engine) recCommitted(updates []wire.Update, withData bool, cts uint64) {
	l := e.log
	if l == nil || len(updates) == 0 {
		return
	}
	recs := make([]storage.Record, len(updates))
	for i, u := range updates {
		recs[i] = storage.Record{Kind: storage.RecCommit, Obj: u.Obj, Version: u.Version, CTS: cts}
		if withData {
			recs[i].Data = u.Data
		}
	}
	_ = l.Append(recs...)
}

func (e *Engine) handleVal(m *wire.CommitVal) {
	// No epoch filter: an R-VAL states the fact "every follower applied
	// Tx", which stays true across view changes. Dropping a VAL in flight
	// over an epoch bump would strand the stored R-INV (the coordinator
	// has already completed the slot and never re-VALs), pinning the
	// object Invalid forever; the t_version checks below keep stale VALs
	// harmless.
	p := e.inPipe(m.Tx.Pipe)
	p.mu.Lock()
	inv := p.stored[m.Tx.Local]
	delete(p.stored, m.Tx.Local)
	delete(p.unlogged, m.Tx.Local)
	p.markDone(m.Tx.Local)
	// The R-VAL may unblock a waiting successor (prev-VAL inclusion rule).
	if next, ok := p.waiting[m.Tx.Local+1]; ok {
		delete(p.waiting, m.Tx.Local+1)
		e.applyInvLocked(p, next.Tx.Pipe.Node, next)
	}
	p.mu.Unlock()
	if inv == nil {
		return // VAL for a slot this node did not follow: ordering-only
	}
	for _, u := range inv.Updates {
		if o, ok := e.st.Get(u.Obj); ok {
			o.Mu.Lock()
			o.ValidateLocked(u.Version, store.TInvalid)
			o.Mu.Unlock()
		}
	}
	// Follower-side commit record: version only, the matching RecInv
	// already carries the data.
	e.recCommitted(inv.Updates, false, inv.CTS)
}

func (p *inPipe) isDone(local uint64) bool {
	if local == 0 {
		return true
	}
	return local <= p.watermark || p.done[local]
}

func (p *inPipe) markDone(local uint64) {
	p.done[local] = true
	for p.done[p.watermark+1] {
		p.watermark++
		delete(p.done, p.watermark)
	}
}

// ---------------------------------------------------------------------------
// Coordinator ACK collection.
// ---------------------------------------------------------------------------

func (e *Engine) handleAck(m *wire.CommitAck) {
	// No epoch filter (mirrors handleVal): "follower F applied Tx" is a
	// fact regardless of the epoch the ACK crossed; completeness is always
	// evaluated against the *current* live set anyway.
	if m.Tx.Pipe.Node == e.self {
		p, ok := e.outPipes.Get(m.Tx.Pipe.Worker)
		if !ok {
			return
		}
		live := e.agent.View().Live
		self := wire.BitmapOf(e.self)
		// Completions collect in a stack buffer: one ACK finishes one slot,
		// a sweep a handful.
		var buf [8]*Slot
		complete := buf[:0]
		p.mu.Lock()
		if s := p.slots[m.Tx.Local]; s != nil {
			s.acked = s.acked.Add(m.From)
			need := s.followers.Intersect(live)
			if !s.valed && s.acked.Union(self).Intersect(need) == need {
				complete = append(complete, s)
			}
		}
		// AppliedWM coverage: the follower vouches for every slot on this
		// pipe with CTS ≤ AppliedWM (pipes apply in order, CTSs increase
		// along the pipe), so open slots whose individual R-ACK was lost
		// in flight are marked acked too. The walk follows the
		// registration-order FIFO and stops at the watermark — in the
		// common case (slots complete in order) it touches one or two
		// slots, never the whole map.
		p.compactLocked()
		if prev := p.swept[m.From]; m.AppliedWM > prev {
			open := p.live()
			i := sort.Search(len(open), func(i int) bool {
				return open[i].inv.CTS > prev
			})
			for ; i < len(open); i++ {
				s := open[i]
				if s.inv.CTS == 0 || s.inv.CTS > m.AppliedWM {
					break
				}
				if s.valed || !s.followers.Contains(m.From) || s.acked.Contains(m.From) {
					continue
				}
				s.acked = s.acked.Add(m.From)
				need := s.followers.Intersect(live)
				if s.acked.Union(self).Intersect(need) == need {
					complete = append(complete, s)
				}
			}
			if p.swept == nil {
				p.swept = make(map[wire.NodeID]uint64)
			}
			p.swept[m.From] = m.AppliedWM
		}
		p.mu.Unlock()
		for _, s := range complete {
			e.completeSlot(s)
		}
		return
	}
	// ACK for a transaction this node is replaying (dead coordinator).
	// Fast-path probe: replays are empty except around a view change, so
	// stray ACKs for foreign pipes skip the slow-path lock entirely.
	if e.replayN.Load() == 0 {
		return
	}
	e.replayMu.Lock()
	rs := e.replays[m.Tx]
	if rs != nil {
		rs.acked = rs.acked.Add(m.From)
		if rs.acked.Intersect(rs.followers) == rs.followers && !rs.finished {
			rs.finished = true
			e.finishReplayLocked(rs)
		}
	}
	e.replayMu.Unlock()
}

// ---------------------------------------------------------------------------
// Recovery: replaying pending reliable commits of dead coordinators (§5.1).
// ---------------------------------------------------------------------------

type replaySlot struct {
	inv       *wire.CommitInv
	followers wire.Bitmap
	acked     wire.Bitmap
	finished  bool
	// Crash-aware resend pacing (see resendPolicy).
	retr       *retry.Retrier
	nextResend time.Time
	// since stamps replay creation for the watchdog's age scan.
	since time.Time
}

// OnViewChange prunes dead followers from this coordinator's open slots and
// replays every stored R-INV of dead coordinators. It reports recovery-done
// to the membership agent once all replays validate.
func (e *Engine) OnViewChange(next wire.View, removed wire.Bitmap) {
	if removed.Count() == 0 {
		return
	}
	// Drain the coalescer first so recovery's direct sends below cannot
	// overtake still-queued pre-change messages on the same links.
	e.flushOut()
	live := next.Live
	epoch := next.Epoch

	// 1. Own open slots: rewrite epochs, drop dead followers, re-send to
	// the survivors (they may have missed the original in the old epoch).
	var toComplete []*Slot
	e.outPipes.Range(func(_ wire.Worker, p *outPipe) bool {
		p.mu.Lock()
		for _, s := range p.slots {
			s.followers = s.followers.Intersect(live)
			// Copy-on-write: the original R-INV may still be in flight
			// on transport goroutines.
			inv := *s.inv
			inv.Followers = s.followers
			inv.Epoch = epoch
			inv.Replay = true
			s.inv = &inv
			if s.acked.Intersect(s.followers) == s.followers {
				toComplete = append(toComplete, s)
			} else {
				for n := range s.followers.Each {
					if !s.acked.Contains(n) {
						_ = e.tr.Send(n, s.inv)
					}
				}
			}
		}
		p.mu.Unlock()
		return true
	})
	for _, s := range toComplete {
		e.completeSlot(s)
	}

	// 2. Stored R-INVs of dead coordinators: replay them.
	type item struct {
		pipe wire.PipeID
		inv  *wire.CommitInv
	}
	var items []item
	e.inPipes.Range(func(id wire.PipeID, p *inPipe) bool {
		if live.Contains(id.Node) {
			return true
		}
		p.mu.Lock()
		for _, inv := range p.stored {
			items = append(items, item{pipe: id, inv: inv})
		}
		p.mu.Unlock()
		return true
	})
	e.replayMu.Lock()
	e.replayEpoch = epoch
	for _, it := range items {
		inv := *it.inv // shallow copy; updates shared (immutable)
		inv.Epoch = epoch
		inv.Replay = true
		inv.Followers = it.inv.Followers.Intersect(live).Remove(e.self)
		rs := &replaySlot{inv: &inv, followers: inv.Followers, retr: resendPolicy.Start(), since: time.Now()}
		if wait, ok := rs.retr.Next(); ok {
			rs.nextResend = time.Now().Add(wait)
		}
		if _, dup := e.replays[inv.Tx]; !dup {
			e.replayN.Add(1)
		}
		e.replays[inv.Tx] = rs
		e.stReplays.Add(1)
	}
	// Snapshot inv/followers under replayMu: the resendLoop rewrites both
	// fields (also under replayMu), so they must not be read lock-free below.
	type replayOut struct {
		rs        *replaySlot
		inv       *wire.CommitInv
		followers wire.Bitmap
	}
	replays := make([]replayOut, 0, len(e.replays))
	for _, rs := range e.replays {
		replays = append(replays, replayOut{rs: rs, inv: rs.inv, followers: rs.followers})
	}
	e.replayMu.Unlock()

	for _, ro := range replays {
		if ro.followers.Count() == 0 {
			e.replayMu.Lock()
			if !ro.rs.finished {
				ro.rs.finished = true
				e.finishReplayLocked(ro.rs)
			}
			e.replayMu.Unlock()
			continue
		}
		for n := range ro.followers.Each {
			_ = e.tr.Send(n, ro.inv)
		}
	}
	e.maybeReportDone()
}

// finishReplayLocked validates a replayed transaction (replayMu held): the
// local stored copy flips Valid, survivors get R-VAL.
func (e *Engine) finishReplayLocked(rs *replaySlot) {
	tx := rs.inv.Tx
	delete(e.replays, tx)
	e.replayN.Add(-1)
	epoch := rs.inv.Epoch
	followers := rs.followers
	go func() {
		// Validate locally exactly like a follower receiving R-VAL.
		e.handleVal(&wire.CommitVal{Tx: tx, Epoch: epoch})
		for n := range followers.Each {
			if n != e.self {
				_ = e.tr.Send(n, &wire.CommitVal{Tx: tx, Epoch: epoch})
			}
		}
		e.maybeReportDone()
	}()
}

// resendLoop is the liveness backstop behind the epoch filter on R-INVs:
// handleInv silently drops an invalidation whose epoch does not match the
// local agent's, so an R-INV in flight across a view change is lost at the
// protocol layer even though the transport delivered it (the two agents bump
// epochs asynchronously). Every unacknowledged coordinator slot and replay
// slot is therefore periodically re-broadcast with the *current* epoch and
// the Replay bit (version checks make re-application idempotent and
// order-independent, §5.1), and completeness is re-evaluated against the
// live set so slots whose missing followers died still validate.
func (e *Engine) resendLoop() {
	// Epoch mismatches can only arise around a view change (the agents bump
	// epochs asynchronously but settle quickly), so the resender works in a
	// grace window after each epoch change — extended while it still finds
	// unacknowledged slots — and is completely idle in steady state. Under
	// saturation slots legitimately sit unvalidated for tens of
	// milliseconds behind follower backlogs; resending those would double
	// the message volume exactly when the pipeline is busiest.
	const (
		epochGrace = 50 * time.Millisecond
		activeTick = 500 * time.Microsecond // while recovering
		idleTick   = 10 * time.Millisecond  // steady state: just watch the epoch
	)
	lastEpoch := e.agent.Epoch()
	var graceUntil time.Time
	t := time.NewTimer(idleTick)
	defer t.Stop()
	for {
		var now time.Time
		select {
		case <-e.closed:
			return
		case now = <-t.C:
		}
		view := e.agent.View()
		live, epoch := view.Live, view.Epoch
		if epoch != lastEpoch {
			lastEpoch = epoch
			graceUntil = now.Add(epochGrace)
		}
		if now.After(graceUntil) && e.replayN.Load() == 0 {
			t.Reset(idleTick)
			continue
		}
		t.Reset(activeTick)

		type send struct {
			to  wire.NodeID
			inv *wire.CommitInv
		}
		var sends []send
		var complete []*Slot

		e.outPipes.Range(func(_ wire.Worker, p *outPipe) bool {
			p.mu.Lock()
			for _, s := range p.slots {
				if s.valed || now.Before(s.openedAt.Add(s.resendAfter)) {
					continue
				}
				need := s.followers.Intersect(live)
				if s.acked.Union(wire.BitmapOf(e.self)).Intersect(need) == need {
					complete = append(complete, s)
					continue
				}
				wait, _ := s.retr.Next()
				s.resendAfter = now.Sub(s.openedAt) + wait
				inv := *s.inv // copy-on-write: the original may be in flight
				inv.Epoch = epoch
				inv.Replay = true
				inv.Followers = need
				s.inv = &inv
				for n := range need.Each {
					if n != e.self && !s.acked.Contains(n) {
						sends = append(sends, send{n, s.inv})
					}
				}
			}
			p.mu.Unlock()
			return true
		})
		for _, s := range complete {
			e.completeSlot(s)
		}

		e.replayMu.Lock()
		for _, rs := range e.replays {
			if rs.finished || now.Before(rs.nextResend) {
				continue
			}
			need := rs.followers.Intersect(live)
			if rs.acked.Intersect(need) == need {
				rs.finished = true
				rs.followers = need
				e.finishReplayLocked(rs)
				continue
			}
			wait, _ := rs.retr.Next()
			rs.nextResend = now.Add(wait)
			inv := *rs.inv
			inv.Epoch = epoch
			rs.inv = &inv
			for n := range need.Each {
				if n != e.self && !rs.acked.Contains(n) {
					sends = append(sends, send{n, rs.inv})
				}
			}
		}
		e.replayMu.Unlock()

		if len(sends) > 0 {
			// Still-unacked slots right after an epoch change: keep the
			// window open until the protocol quiesces.
			graceUntil = now.Add(epochGrace)
			e.flushOut() // keep per-link FIFO with queued originals
		}
		for _, s := range sends {
			e.stResends.Add(1)
			_ = e.tr.Send(s.to, s.inv)
		}
	}
}

// maybeReportDone reports recovery completion once no replays remain.
func (e *Engine) maybeReportDone() {
	e.replayMu.Lock()
	n := len(e.replays)
	epoch := e.replayEpoch
	e.replayMu.Unlock()
	if n == 0 && epoch != 0 {
		e.agent.ReportRecoveryDone(epoch)
	}
}
