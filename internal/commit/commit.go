// Package commit implements Zeus' reliable commit protocol (§5): the
// propagation of a locally committed write transaction to its followers (the
// readers of all modified objects) via idempotent invalidations.
//
// Failure-free flow (Figure 4): after the local commit, the coordinator
// broadcasts R-INV {tx_id, e_id, followers, updates} and keeps it; followers
// apply newer versions, flip the objects to Invalid, store the R-INV and
// R-ACK. Once all followers ACKed, the coordinator validates locally and
// broadcasts R-VAL; followers validate (iff the version is unchanged) and
// discard the stored R-INV. Acknowledgements travel in windows: a follower
// sends one R-ACK per pipe per flush, naming with one bit each the slots
// whose WAL append returned since the last, and a coordinator one R-VAL per
// pipe per flush, naming the slots it validated, to the union of their
// followers (see window).
//
// Pipelining (§5.2, Figure 5): the coordinator never waits for replication —
// tx_id = ⟨local_tx_id, node_id⟩ (extended per worker thread, §7) orders the
// slots of one pipeline; followers apply an R-INV only once the previous slot
// of that pipe is applied or validated, with the prev-VAL bit / R-VAL
// inclusion rule covering followers that see only part of a pipe's stream.
//
// Recovery (§5.1): after an epoch bump, every live node adopts the stored
// R-INVs of dead coordinators as slots of its own: each becomes a Slot on an
// adopted outPipe keyed by the dead coordinator's PipeID (epoch rewritten,
// dead followers pruned) and goes through the same R-INV/R-ACK/R-VAL exchange,
// resends and completion as a slot this node opened. All R-INVs of a
// transaction are idempotent — same tx_id and t_versions — so concurrent
// replayers are harmless. When a node has no adopted slot left open it
// reports recovery-done; the ownership protocol resumes only after every live
// node has reported (the membership barrier).
//
// A slot is acknowledged by a follower's R-ACK that names it and by nothing
// else: its bit is set only once the follower's WAL append for that slot
// returned (ackDurable), and no acknowledgement of one slot vouches for
// another — an R-ACK names each slot it acknowledges with a bit of its own.
//
// Concurrency (§5.2/§7): the engine holds no global lock on any hot path.
// Pipelines are looked up lock-free (copy-on-write maps — pipes are created
// once per worker, or once per adopted dead pipe, and read per message) and
// each outPipe/inPipe carries its own mutex, so commits and deliveries on
// independent pipes never contend. Per-object pending state lives on
// store.Object (an atomic counter).
package commit

import (
	"errors"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/obs"
	"zeus/internal/retry"
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
	// R-ACK and R-VAL messages this node sent (an R-VAL once per target),
	// and the slots they named: slots per message is what a window folds.
	RAcks, RAckSlots uint64
	RVals, RValSlots uint64
	// QueueMax is the most messages one peer's coalescer queue held when a
	// flush took it.
	QueueMax uint64
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

// window is a run of one pipe's slots waiting to be named by one R-ACK (a
// follower's, on its inPipe) or one R-VAL (a coordinator's, on its outPipe):
// bit i of mask names slot base+i, and base's own bit is always set. On the
// wire Tx.Local is base and More is mask>>1, so each named slot has its own
// bit and none is implied. flushOut emits every non-empty window just before
// it sends the peer queues; a slot that does not fit the open window — of
// another epoch or destination, or 64 or more slots away — emits it at once
// and opens the next.
type window struct {
	base, mask uint64
	targets    wire.Bitmap // R-VAL: the union of the named slots' targets
	epoch      wire.Epoch
	to         wire.NodeID // R-ACK: the coordinator, or a replayer
}

// add names local in w for a message of epoch bound for to. It reports
// false, leaving w unchanged, when w holds a run of another epoch or
// destination, or local lies outside the 64 slots w can name.
func (w *window) add(local uint64, epoch wire.Epoch, to wire.NodeID) bool {
	switch {
	case w.mask == 0:
		*w = window{base: local, mask: 1, epoch: epoch, to: to}
	case epoch != w.epoch || to != w.to:
		return false
	case local >= w.base && local-w.base < 64:
		w.mask |= 1 << (local - w.base)
	case local < w.base && w.base-local <= uint64(bits.LeadingZeros64(w.mask)):
		w.mask = w.mask<<(w.base-local) | 1
		w.base = local
	default:
		return false
	}
	return true
}

// windowed is a pipe holding a window for flushOut to emit.
type windowed interface{ emitWindow(e *Engine) }

// Engine runs the reliable commit protocol on one node.
type Engine struct {
	self  wire.NodeID
	st    *store.Store
	tr    transport.Transport
	agent *viewsvc.Agent

	// Pipelines: copy-on-write maps (lock-free lookup, mutex-serialized
	// insertion — a pipe is created once and read per message). Per-slot
	// state is guarded by each pipe's own mutex. outPipes are this node's
	// own, adopted the dead coordinators' pipes it replays (§5.1).
	outPipes shardmap.COW[wire.Worker, *outPipe]
	adopted  shardmap.COW[wire.PipeID, *outPipe]
	inPipes  shardmap.COW[wire.PipeID, *inPipe]

	// recoveryEpoch is the epoch of the last view change that removed a
	// node: recovery-done is reported for it once no adopted slot is open.
	recoveryEpoch atomic.Uint32
	// unloggedPipes counts the follower pipes holding a slot whose WAL append
	// failed (inPipe.retrying); while it is non-zero the resend loop retries
	// those appends.
	unloggedPipes atomic.Int32

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
	// wins lists the pipes whose window turned non-empty since the last
	// flushOut emitted them. winMu is taken before a pipe's lock, never
	// after.
	winMu sync.Mutex
	wins  []windowed

	closed chan struct{}
	once   sync.Once

	// The Config fields, fixed at construction: the durability WAL (nil
	// disables durability) and the durable incarnation stamped into new
	// pipelines' PipeID.Incar (zero falls back to the view epoch at pipe
	// creation).
	log   *storage.Log
	incar wire.Epoch

	// obs holds the cached metric handles the hot path records into. nil
	// (no Config.Obs) keeps the seed write path: every record site is gated
	// on one nil check.
	obs *engineObs

	stCommitted atomic.Uint64
	stInvals    atomic.Uint64
	stReplays   atomic.Uint64
	stResends   atomic.Uint64
	stBytes     atomic.Uint64
	stRAcks     atomic.Uint64
	stRAckSlots atomic.Uint64
	stRVals     atomic.Uint64
	stRValSlots atomic.Uint64
	stQueueMax  atomic.Uint64
}

// coalesceFlushCount / coalesceInterval bound the outbound coalescer: flush
// once this many messages queued, or this long after the first one.
const (
	coalesceFlushCount = 32
	coalesceInterval   = 100 * time.Microsecond
)

// outPipe is a coordinator-side pipeline: one per worker thread (§7), or a
// dead coordinator's pipe this node adopted to replay its stored R-INVs
// (adopted, keyed by that coordinator's PipeID; §5.1).
type outPipe struct {
	id      wire.PipeID
	adopted bool

	mu        sync.Mutex
	nextLocal uint64
	slots     map[uint64]*Slot
	// order holds the same slots in Local order (an own pipe appends each
	// slot as it registers it; adopt inserts a replayed slot at its Local).
	// The resend pass walks it instead of iterating the slots map, whose cost
	// is capacity- not size-proportional and never shrinks. The live window is order[head:] (see live); completeSlot
	// trims finished slots off its front (compactLocked) as they finish, so
	// the front entry is always open and an idle pipe holds no slot.
	order []*Slot
	head  int
	// val is the R-VAL window of the slots completeSlot validated since the
	// last flush, vals where its messages are taken from, and fresh where
	// Commit and adopt take each Slot from (all under mu).
	val   window
	vals  wire.Chunk[wire.CommitVal]
	fresh wire.Chunk[Slot]
}

// compactLocked drops finished slots off the front of the order FIFO.
// Amortized O(1): each slot is appended once, trimmed once and moved at most
// once. The front advances by index rather than by reslicing, so a pipeline
// that drains — every commit of a shallow one — rewinds into the array it
// already has instead of allocating a new FIFO; only an array a burst grew
// past the pipeline bound is let go.
func (p *outPipe) compactLocked() {
	for p.head < len(p.order) && p.order[p.head].finished {
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
// alive. 408 bytes, so 16 of them and Go's malloc header fit the 6784-byte
// size class (TestSlotSize).
type Slot struct {
	pipe *outPipe
	// inv is the R-INV to (re)send. It points at first until a resend
	// rewrites epoch and followers, which installs a fresh copy instead
	// (copy-on-write, resend): the original may still be in flight, and on
	// the zero-copy hub the followers hold this very struct.
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
	// due resendAfter past openedAt, when Commit or adopt registered the
	// slot — which also feeds the phase-latency histograms and the
	// watchdog's age scan.
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
// slot's bit is in its pipe's R-VAL window, which the next flush sends. The channel is made on the first call — tests and drain
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
	id wire.PipeID
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
	// failed, so the pipe is counted in Engine.unloggedPipes (retrying) and
	// the resend loop, or the next delivery of the same R-INV, retries it.
	// Duplicates of already-durable slots are *not* in this map and re-ACK
	// without re-appending — a resend storm must not grow the WAL.
	unlogged map[uint64]*wire.CommitInv
	retrying bool
	// wdSeen is watchdog-only state: when the debt scanner first observed
	// each stored R-INV (under mu, but ONLY from watchdogScan — the apply
	// and validate hot paths never touch it, so obs costs nothing here).
	wdSeen map[uint64]time.Time
	// ack is the R-ACK window of the slots whose append returned since the
	// last flush, and acks where its messages are taken from. Both are under
	// wmu, not mu, so a flush never waits behind a WAL append (ackDurable
	// appends with mu held).
	wmu  sync.Mutex
	ack  window
	acks wire.Chunk[wire.CommitAck]
}

// Config is what the node hands the engine at construction; the zero value
// is a memory-only, unobserved engine.
type Config struct {
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
	// Obs, when non-nil, receives the engine's metrics, traces and watchdog
	// incidents.
	Obs *obs.Registry
}

// New creates a reliable-commit engine.
func New(self wire.NodeID, st *store.Store, tr transport.Transport, agent *viewsvc.Agent, cfg Config) *Engine {
	e := &Engine{
		self:   self,
		st:     st,
		tr:     tr,
		agent:  agent,
		coWake: make(chan struct{}, 1),
		closed: make(chan struct{}),
		log:    cfg.Log,
		incar:  wire.Epoch(cfg.Incarnation),
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
	switch n := e.queue(to, m); {
	case n == 0:
	case n >= coalesceFlushCount:
		e.flushOut()
	default:
		e.arm()
	}
}

// queue appends m to to's coalescer queue and returns the approximate total
// queued, 0 if m is not for a peer. It neither flushes nor arms: enqueue
// does, and flushOut sends what it queues itself.
func (e *Engine) queue(to wire.NodeID, m wire.Msg) int32 {
	if to == e.self || int(to) >= maxPeers {
		return 0
	}
	q := &e.coQ[to]
	q.mu.Lock()
	q.msgs = append(q.msgs, m)
	q.mu.Unlock()
	e.coDirty.Or(1 << to)
	return e.coCount.Add(1)
}

// arm arms a timed flush unless one is already pending. The flag (not the
// approximate count) carries the liveness guarantee: every enqueued message
// and every window bit is followed by a flush within coalesceInterval,
// because the pending cycle disarms *before* it flushes — an enqueue or a
// window racing with the flush re-arms the next cycle.
func (e *Engine) arm() {
	if !e.coArmed.Swap(true) {
		select {
		case e.coWake <- struct{}{}:
		default:
		}
	}
}

// listWindow puts p on the list of pipes flushOut emits windows from, once
// its window turned non-empty, and arms a timed flush as enqueue does: a bit
// set on an otherwise idle node still leaves within coalesceInterval.
func (e *Engine) listWindow(p windowed) {
	e.winMu.Lock()
	e.wins = append(e.wins, p)
	e.winMu.Unlock()
	e.arm()
}

// flushOut emits every pending window (one R-ACK or one R-VAL per pipe),
// then drains the coalescer, sending each peer's queue as one batch.
// Only peers flagged dirty are visited; an enqueue racing with the swap
// re-flags its peer (the Or runs after the append), so at worst a queue is
// visited empty once or left for the already-armed next cycle. One flusher
// sends to a peer at a time (peerQueue.sending), which keeps the peer's
// batches in queue order on the link; what a second flusher leaves behind is
// sent by the first before it lets go, so no message waits for a later flush.
// flushOut takes no pipe lock but a window's, and the callers hold none of
// those: a count-triggered flush from enqueue runs with at most an inPipe's
// mu held.
func (e *Engine) flushOut() {
	e.emitWindows()
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
			for n, max := uint64(len(msgs)), e.stQueueMax.Load(); n > max && !e.stQueueMax.CompareAndSwap(max, n); max = e.stQueueMax.Load() {
			}
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

// emitWindows queues the message of each listed pipe's window (flushOut
// sends them right after) and empties the list, keeping its array.
func (e *Engine) emitWindows() {
	e.winMu.Lock()
	defer e.winMu.Unlock()
	for _, p := range e.wins {
		p.emitWindow(e)
	}
	clear(e.wins)
	e.wins = e.wins[:0]
}

// emitWindow queues the follower's pending R-ACK.
func (p *inPipe) emitWindow(e *Engine) {
	p.wmu.Lock()
	to, ack := e.sealAckLocked(p)
	p.wmu.Unlock()
	if ack != nil {
		e.queue(to, ack)
	}
}

// sealAckLocked turns p's R-ACK window into its message and empties it
// (p.wmu held); nil if the window is empty. This is where an R-ACK is made:
// from bits that only ackDurable sets, each after its append returned.
func (e *Engine) sealAckLocked(p *inPipe) (wire.NodeID, *wire.CommitAck) {
	w := &p.ack
	if w.mask == 0 {
		return 0, nil
	}
	ack := p.acks.Take()
	*ack = wire.CommitAck{Tx: wire.TxID{Pipe: p.id, Local: w.base}, More: w.mask >> 1, Epoch: w.epoch, From: e.self}
	e.stRAcks.Add(1)
	e.stRAckSlots.Add(uint64(bits.OnesCount64(w.mask)))
	to := w.to
	*w = window{}
	return to, ack
}

// emitWindow queues the coordinator's pending R-VAL to each of its targets.
func (p *outPipe) emitWindow(e *Engine) {
	p.mu.Lock()
	targets, val := e.sealValLocked(p)
	p.mu.Unlock()
	for n := range targets.Each {
		e.queue(n, val)
	}
}

// sealValLocked turns p's R-VAL window into its message and empties it
// (p.mu held); nil if the window is empty.
func (e *Engine) sealValLocked(p *outPipe) (wire.Bitmap, *wire.CommitVal) {
	w := &p.val
	if w.mask == 0 {
		return 0, nil
	}
	val := p.vals.Take()
	*val = wire.CommitVal{Tx: wire.TxID{Pipe: p.id, Local: w.base}, More: w.mask >> 1, Epoch: w.epoch}
	sent := uint64(w.targets.Count())
	e.stRVals.Add(sent)
	e.stRValSlots.Add(sent * uint64(bits.OnesCount64(w.mask)))
	targets := w.targets
	*w = window{}
	return targets, val
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

// PendingReplays returns how many adopted dead-coordinator slots are still
// unvalidated (0 in steady state; diagnostics and drain waits).
func (e *Engine) PendingReplays() int { return openSlots(&e.adopted) }

// Stats returns a snapshot of counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Committed:       e.stCommitted.Load(),
		Invalidations:   e.stInvals.Load(),
		Replays:         e.stReplays.Load(),
		Resends:         e.stResends.Load(),
		BytesReplicated: e.stBytes.Load(),
		RAcks:           e.stRAcks.Load(),
		RAckSlots:       e.stRAckSlots.Load(),
		RVals:           e.stRVals.Load(),
		RValSlots:       e.stRValSlots.Load(),
		QueueMax:        e.stQueueMax.Load(),
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
		return &inPipe{id: id, stored: make(map[uint64]*wire.CommitInv), done: make(map[uint64]bool), waiting: make(map[uint64]*wire.CommitInv), unlogged: make(map[uint64]*wire.CommitInv)}
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

// PendingSlots returns the number of unvalidated slots this node opened.
func (e *Engine) PendingSlots() int { return openSlots(&e.outPipes) }

func openSlots[K comparable](pipes *shardmap.COW[K, *outPipe]) int {
	n := 0
	pipes.Range(func(_ K, p *outPipe) bool {
		p.mu.Lock()
		n += len(p.slots)
		p.mu.Unlock()
		return true
	})
	return n
}

// eachPipe calls fn for every coordinator pipe: this node's own, then the
// dead coordinators' it adopted.
func (e *Engine) eachPipe(fn func(*outPipe)) {
	e.outPipes.Range(func(_ wire.Worker, p *outPipe) bool { fn(p); return true })
	e.adopted.Range(func(_ wire.PipeID, p *outPipe) bool { fn(p); return true })
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

	slot := p.fresh.Take()
	*slot = Slot{
		pipe: p,
		first: wire.CommitInv{Tx: wire.TxID{Pipe: p.id, Local: local}, Epoch: epoch,
			Followers: followers, PrevVal: prevVal},
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
	// A drained FIFO was rewound by compactLocked: the new slot lands at the
	// front of the array it already has.
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
	size := wire.Size(inv)
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

// completeSlot validates a coordinator slot once every live follower ACKed
// it. An own slot flips its local objects whose version is unchanged back to
// Valid, releases their pending counts and records the commit with its data;
// an adopted one validates the stored R-INV it replays as a received R-VAL
// would. Either way the slot leaves the pipe and its bit joins the pipe's
// R-VAL window, which the next flush sends to the union of the window's
// targets (a target that did not follow a slot takes it as ordering only).
func (e *Engine) completeSlot(s *Slot) {
	p := s.pipe
	p.mu.Lock()
	if s.valed {
		p.mu.Unlock()
		return
	}
	s.valed = true
	// The resend pass repoints s.inv and s.followers under p.mu; everything
	// below works from this one consistent reading.
	inv, targets := s.inv, s.followers.Union(s.extraVal)
	p.mu.Unlock()
	local := s.Tx().Local

	if p.adopted {
		e.validateStored(e.inPipe(p.id), local)
	} else {
		e.validateOwn(s, inv)
	}
	if !p.adopted {
		e.stCommitted.Add(1)
		s.tr.Event("applied")
		if ob := e.obs; ob != nil {
			ob.appliedNS.RecordSince(s.openedAt)
			ob.reg.Traces.Offer(s.tr)
		}
	}

	var full *wire.CommitVal
	var fullTargets wire.Bitmap
	p.mu.Lock()
	delete(p.slots, local)
	s.finished = true // from here on Done hands out s.done as it is
	p.compactLocked()
	done := s.done
	fresh := targets != 0 && p.val.mask == 0
	if targets != 0 {
		if !p.val.add(local, inv.Epoch, 0) {
			fullTargets, full = e.sealValLocked(p)
			p.val.add(local, inv.Epoch, 0)
		}
		p.val.targets = p.val.targets.Union(targets)
	}
	p.mu.Unlock()
	for n := range fullTargets.Each {
		e.enqueue(n, full)
	}
	if fresh {
		e.listWindow(p)
	}
	if done != nil {
		close(done) // after the listing: a flush by whoever waited sends the R-VAL
	}
	if p.adopted {
		e.maybeReportDone()
	}
}

// validateOwn is completeSlot's local half for a slot this node opened.
func (e *Engine) validateOwn(s *Slot, inv *wire.CommitInv) {
	s.tr.Event("ack")
	if ob := e.obs; ob != nil {
		ob.ackNS.RecordSince(s.openedAt)
	}
	for _, u := range inv.Updates {
		if o, ok := e.st.Get(u.Obj); ok {
			o.Mu.Lock()
			o.ValidateLocked(u.Version, store.TWrite)
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
	e.recCommitted(inv.Updates, true)
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
		o.StageInvLocked(u.Version, u.Data)
		o.Mu.Unlock()
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
// the WAL — group-committed, durable on return — strictly before the slot's
// bit is set in the pipe's R-ACK window, so a coordinator can never observe
// an acknowledgement for a write the follower could forget in a crash. The
// window bit is the receipt that the append returned: the R-ACK the next
// flush makes of the window (sealAckLocked) names this slot by that bit and
// acknowledges nothing else. A failed append sets no bit: the slot stays in
// unlogged and the pipe is counted, so the resend loop retries the append
// (retryAppends) until it returns, or a retransmitted R-INV does first. A
// slot already logged (not in unlogged) sets its bit again without touching
// the WAL: duplicates and resend storms must not grow it. A slot the open
// window cannot name — another destination or epoch, or 64 slots away —
// sends that window at once and opens the next.
func (e *Engine) ackDurable(p *inPipe, to wire.NodeID, m *wire.CommitInv) {
	if l := e.log; l != nil {
		if inv, needs := p.unlogged[m.Tx.Local]; needs {
			recs := make([]storage.Record, len(inv.Updates))
			for i, u := range inv.Updates {
				// Data aliases the applied update; safe because store data
				// is replace-only and WAL records are frozen at Append.
				recs[i] = storage.Record{Kind: storage.RecInv, Obj: u.Obj, Version: u.Version, Data: u.Data}
			}
			if l.Append(recs...) != nil {
				// No durability, no ACK. Failing storage degrades
				// liveness, never safety.
				if !p.retrying {
					p.retrying = true
					e.unloggedPipes.Add(1)
				}
				return
			}
			e.logged(p, m.Tx.Local)
		}
	}
	p.wmu.Lock()
	fresh := p.ack.mask == 0
	var fullTo wire.NodeID
	var full *wire.CommitAck
	if !p.ack.add(m.Tx.Local, m.Epoch, to) {
		fullTo, full = e.sealAckLocked(p)
		p.ack.add(m.Tx.Local, m.Epoch, to)
	}
	p.wmu.Unlock()
	if full != nil {
		e.enqueue(fullTo, full)
	}
	if fresh {
		e.listWindow(p)
	}
}

// logged drops local from p.unlogged, and the pipe from the engine's count
// once no failed append is left in it (p.mu held).
func (e *Engine) logged(p *inPipe, local uint64) {
	delete(p.unlogged, local)
	if p.retrying && len(p.unlogged) == 0 {
		p.retrying = false
		e.unloggedPipes.Add(-1)
	}
}

// retryAppends retries, through ackDurable, every failed follower append on a
// pipe whose coordinator is live, and ACKs that coordinator once one returns.
// A dead coordinator's pipe is left to its replayers: each of their resends
// retries the append on delivery.
func (e *Engine) retryAppends(live wire.Bitmap) {
	e.inPipes.Range(func(id wire.PipeID, p *inPipe) bool {
		if live.Contains(id.Node) {
			p.mu.Lock()
			for _, inv := range p.unlogged {
				e.ackDurable(p, id.Node, inv)
			}
			p.mu.Unlock()
		}
		return true
	})
}

// recCommitted records validated versions in the WAL (best effort: a
// restarted owner re-arms from them only when no replica of the object is
// live anywhere; R-INV durability is what acks depend on).
func (e *Engine) recCommitted(updates []wire.Update, withData bool) {
	l := e.log
	if l == nil || len(updates) == 0 {
		return
	}
	recs := make([]storage.Record, len(updates))
	for i, u := range updates {
		recs[i] = storage.Record{Kind: storage.RecCommit, Obj: u.Obj, Version: u.Version}
		if withData {
			recs[i].Data = u.Data
		}
	}
	_ = l.Append(recs...)
}

func (e *Engine) handleVal(m *wire.CommitVal) {
	// No epoch filter: an R-VAL states the fact "every follower applied
	// these slots", which stays true across view changes. Dropping a VAL in
	// flight over an epoch bump would strand the stored R-INV (the
	// coordinator has already completed the slot and never re-VALs),
	// pinning the object Invalid forever; the t_version checks in
	// validateStored keep stale VALs harmless.
	p := e.inPipe(m.Tx.Pipe)
	for local := range m.Slots {
		e.validateStored(p, local)
	}
}

// validateStored validates one slot an R-VAL names at this follower.
func (e *Engine) validateStored(p *inPipe, local uint64) {
	p.mu.Lock()
	inv := p.stored[local]
	delete(p.stored, local)
	e.logged(p, local)
	p.markDone(local)
	// The R-VAL may unblock a waiting successor (prev-VAL inclusion rule).
	if next, ok := p.waiting[local+1]; ok {
		delete(p.waiting, local+1)
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
	e.recCommitted(inv.Updates, false)
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
	// No epoch filter (mirrors handleVal): "follower F applied these slots"
	// is a fact regardless of the epoch the ACK crossed; completeness is
	// always evaluated against the *current* live set anyway. The ACK names
	// slots of one pipe — own or adopted, of this very incarnation — and
	// acknowledges exactly the slots it names.
	var p *outPipe
	if m.Tx.Pipe.Node == e.self {
		p, _ = e.outPipes.Get(m.Tx.Pipe.Worker)
	} else {
		p, _ = e.adopted.Get(m.Tx.Pipe)
	}
	if p == nil || p.id != m.Tx.Pipe {
		return
	}
	live := e.agent.View().Live
	var complete [65]*Slot // an ACK names at most 65 slots
	n := 0
	p.mu.Lock()
	for local := range m.Slots {
		if s := p.slots[local]; s != nil {
			s.acked = s.acked.Add(m.From)
			if !s.valed && s.acknowledged(live, e.self) {
				complete[n] = s
				n++
			}
		}
	}
	p.mu.Unlock()
	for _, s := range complete[:n] {
		e.completeSlot(s)
	}
}

// acknowledged reports whether every live follower of s ACKed it (p.mu held).
func (s *Slot) acknowledged(live wire.Bitmap, self wire.NodeID) bool {
	need := s.followers.Intersect(live).Remove(self)
	return s.acked.Intersect(need) == need
}

// ---------------------------------------------------------------------------
// Recovery and resends (§5.1).
// ---------------------------------------------------------------------------

// OnViewChange adopts every stored R-INV of a dead coordinator as a slot,
// then runs the resend pass over every open slot, own and adopted: dead
// followers are pruned, a slot its surviving followers all ACKed validates,
// and every other one is re-sent in the new epoch. It reports recovery-done
// to the membership agent once no adopted slot is open.
func (e *Engine) OnViewChange(next wire.View, removed wire.Bitmap) {
	if removed.Count() == 0 {
		return
	}
	e.adopt(next.Live)
	e.recoveryEpoch.Store(uint32(next.Epoch))
	e.resend(time.Now(), next, true)
	e.maybeReportDone()
}

// adopt registers each R-INV this node stores for a coordinator outside live
// as a slot on that coordinator's adopted pipe, at its Local in the pipe's
// order, followed by the stored copy's live followers but this node. A slot
// already adopted stays as it is, with the ACKs it collected.
func (e *Engine) adopt(live wire.Bitmap) {
	now := time.Now()
	e.inPipes.Range(func(id wire.PipeID, ip *inPipe) bool {
		if live.Contains(id.Node) {
			return true
		}
		ip.mu.Lock()
		stored := slices.Collect(maps.Values(ip.stored))
		ip.mu.Unlock()
		if len(stored) == 0 {
			return true
		}
		p := e.adopted.GetOrCreate(id, func() *outPipe {
			return &outPipe{id: id, adopted: true, slots: make(map[uint64]*Slot)}
		})
		p.mu.Lock()
		for _, inv := range stored {
			local := inv.Tx.Local
			if p.slots[local] != nil {
				continue
			}
			s := p.fresh.Take()
			*s = Slot{pipe: p, first: *inv, followers: inv.Followers.Intersect(live).Remove(e.self),
				retr: resendPolicy.Begin(), openedAt: now}
			s.inv = &s.first
			p.slots[local] = s
			open := p.live()
			at := sort.Search(len(open), func(i int) bool { return open[i].Tx().Local > local })
			p.order = slices.Insert(p.order, p.head+at, s)
			e.stReplays.Add(1)
		}
		p.mu.Unlock()
		return true
	})
}

// resend is one pass of the crash-aware resender over every coordinator
// pipe's order FIFO, own and adopted. Dead followers are pruned; a slot every
// live follower ACKed validates; any other slot whose resend is due — every
// one, when forced — is re-sent to its unacknowledged followers with the
// view's epoch and the Replay bit (version checks make re-application
// idempotent and order-independent, §5.1). It reports whether it sent
// anything.
func (e *Engine) resend(now time.Time, view wire.View, force bool) bool {
	type send struct {
		to  wire.NodeID
		inv *wire.CommitInv
	}
	var sends []send
	var complete []*Slot
	e.eachPipe(func(p *outPipe) {
		p.mu.Lock()
		for _, s := range p.live() {
			if s.valed || !force && now.Before(s.openedAt.Add(s.resendAfter)) {
				continue
			}
			s.followers = s.followers.Intersect(view.Live)
			if s.acknowledged(view.Live, e.self) {
				complete = append(complete, s)
				continue
			}
			wait, _ := s.retr.Next() // resendPolicy never gives up
			s.resendAfter = now.Sub(s.openedAt) + wait
			inv := *s.inv // copy-on-write: the original may be in flight
			inv.Epoch = view.Epoch
			inv.Replay = true
			inv.Followers = s.followers
			s.inv = &inv
			for n := range s.followers.Each {
				if !s.acked.Contains(n) {
					sends = append(sends, send{n, s.inv})
				}
			}
		}
		p.mu.Unlock()
	})
	for _, s := range complete {
		e.completeSlot(s)
	}
	if len(sends) > 0 {
		e.flushOut() // keep per-link FIFO with queued originals
	}
	for _, s := range sends {
		e.stResends.Add(1)
		_ = e.tr.Send(s.to, s.inv)
	}
	return len(sends) > 0
}

// resendLoop is the liveness backstop behind the epoch filter on R-INVs:
// handleInv silently drops an invalidation whose epoch does not match the
// local agent's, so an R-INV in flight across a view change is lost at the
// protocol layer even though the transport delivered it (the two agents bump
// epochs asynchronously). It runs the resend pass, and completeness is
// re-evaluated against the live set so slots whose missing followers died
// still validate. While a follower pipe holds a failed WAL append it also
// retries that append (retryAppends).
func (e *Engine) resendLoop() {
	// Epoch mismatches can only arise around a view change (the agents bump
	// epochs asynchronously but settle quickly), so the resender works in a
	// grace window after each epoch change — extended while it still finds
	// unacknowledged slots — and is completely idle in steady state. Under
	// saturation slots legitimately sit unvalidated for tens of
	// milliseconds behind follower backlogs; resending those would double
	// the message volume exactly when the pipeline is busiest. An open
	// adopted slot keeps the resender working past the window: a replay
	// must not wait for the next view change to reach a follower that
	// dropped its first delivery.
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
		if view.Epoch != lastEpoch {
			lastEpoch = view.Epoch
			graceUntil = now.Add(epochGrace)
		}
		resending := !now.After(graceUntil) || e.PendingReplays() != 0
		unlogged := e.unloggedPipes.Load() != 0
		if !resending && !unlogged {
			t.Reset(idleTick)
			continue
		}
		t.Reset(activeTick)
		if unlogged {
			e.retryAppends(view.Live)
		}
		if resending && e.resend(now, view, false) {
			// Still-unacked slots right after an epoch change: keep the
			// window open until the protocol quiesces.
			graceUntil = now.Add(epochGrace)
		}
	}
}

// maybeReportDone reports recovery completion once no adopted slot is open.
func (e *Engine) maybeReportDone() {
	if epoch := wire.Epoch(e.recoveryEpoch.Load()); epoch != 0 && e.PendingReplays() == 0 {
		e.agent.ReportRecoveryDone(epoch)
	}
}
