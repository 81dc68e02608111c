// Package transport provides reliable, ordered message delivery between Zeus
// nodes over three interchangeable fabrics:
//
//   - Reliable: sequence numbers, cumulative acks, retransmission and
//     deduplication over the lossy simulated network (internal/netsim) —
//     the analogue of the paper's reliable messaging library over DPDK.
//   - Hub (memnet): a perfect in-process fabric for unit tests.
//   - TCP: real sockets for multi-process deployments (cmd/zeusd).
//
// All fabrics guarantee exactly-once, per-peer FIFO delivery of wire.Msg
// values, which the Zeus protocols rely on for pipeline ordering (§5.2).
//
// All three work per batch, not per message. A SendBatch travels as a unit
// (a run of inbox entries pushed under one lock, one reliable frame, one
// socket write), and the receiver runs the delivery tick (SetTickHandler)
// once per unit it took in, after dispatching all of it — so the responses a
// batch provokes leave as one batch too. The hub and the reliable fabric see
// the sender's unit as such (on the hub the tick follows the batch's last
// entry). TCP sees a byte stream, and its unit is the socket drain: a read
// loop reads through a small buffer, dispatches every whole frame the read
// brought in, and ticks just before it would go back to the socket. The
// buffer is 8 KiB (readBufSize) because a cluster keeps some 25 read loops
// alive: at 8 KiB the benchmark's live heap did not move, at 64 KiB it grew
// 1.4 MB (+5.5 % on smallbank_tcp) and batched no better. Each inbound stream
// decodes through a wire.Decoder of its own; the hub, which has no streams,
// decodes nothing: it hands the receiver the sender's message (see
// MemTransport.count for the rule that makes that safe).
//
// Every hand-off to a delivery goroutine — the hub's inbox, the reliable
// fabric's per-peer in-order delivery, the Router's shard queues — is the
// same queue (queue.go): its memory follows the backlog, the bound at which a
// sender blocks is given at construction (65 536 messages, DeliveryDepth,
// none) and one rule gives a burst's array back (queueKeepCap).
package transport

import (
	"errors"
	"sync"
	"sync/atomic"

	"zeus/internal/wire"
)

// Handler consumes an inbound message. Handlers run on transport goroutines
// and must not block indefinitely.
type Handler func(from wire.NodeID, m wire.Msg)

// Transport sends and receives protocol messages. All three fabrics work per
// batch, so the batch operations are part of the interface, not an optional
// extra with a per-message fallback.
type Transport interface {
	// Self returns the local node id.
	Self() wire.NodeID
	// Send transmits one message to a peer (reliable, FIFO per peer).
	Send(to wire.NodeID, m wire.Msg) error
	// SendBatch hands several messages to one peer as a unit (one frame on
	// the reliable fabric, one write on TCP, one inbox hop on the hub);
	// protocol engines use it to coalesce responses.
	//
	// No-retain contract: SendBatch is finished with the msgs slice when it
	// returns — it has encoded the messages (Reliable, TCP) or copied the
	// pointers into inbox entries (hub) — so the caller may overwrite
	// and reuse the slice immediately; the commit coalescer flushes from the
	// same two buffers per peer forever. The messages themselves stay frozen
	// as for Send (zeuslint frozen): only the slice that carried them is
	// the caller's again.
	SendBatch(to wire.NodeID, msgs []wire.Msg) error
	// Multicast sends m to every node in dsts (self included, if listed)
	// with a single marshal: the batched fan-out on the replication path.
	Multicast(dsts []wire.NodeID, m wire.Msg) error
	// SetHandler installs the inbound message handler. It must be called
	// before any peer sends traffic to this node.
	SetHandler(h Handler)
	// SetTickHandler installs the delivery-tick hook: it runs once after each
	// inbound frame's (or batch's, or on TCP each socket drain's) messages
	// have been dispatched, so engines can flush responses coalesced across
	// the frame.
	SetTickHandler(func())
	// Close releases transport resources.
	Close() error
}

// ErrClosed is returned when sending on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Flusher is implemented by transports that buffer egress (frame batching);
// Flush forces everything queued onto the wire.
type Flusher interface {
	Flush()
}

// Flush forces any transport-buffered egress onto the wire.
func Flush(t Transport) {
	if f, ok := t.(Flusher); ok {
		f.Flush()
	}
}

// Router dispatches inbound messages to per-kind handlers, so that a Zeus
// node's ownership engine, reliable-commit engine and membership agent can
// share one Transport. (A baseline node is its endpoint's only protocol and
// installs its own handler.)
//
// # Sharded dispatch
//
// By default every message is handled inline on the transport's delivery
// goroutine, which serializes the whole node on one goroutine even when the
// traffic targets independent commit pipelines. EnableSharding(n) switches
// keyed protocol traffic to n handler goroutines:
//
//   - reliable-commit messages (R-INV/R-ACK/R-VAL) are keyed by their
//     PipeID, preserving the per-pipe FIFO that pipeline ordering (§5.2)
//     requires while letting independent pipes apply in parallel;
//   - ownership messages (REQ/INV/ACK/VAL/NACK/RESP) are keyed by ObjectID,
//     preserving per-object FIFO while unrelated arbitrations proceed
//     concurrently.
//
// Messages of the same key always land on the same shard, so the only
// ordering the mode gives up is *across* keys (and between keyed and unkeyed
// traffic) — orderings the Zeus protocols do not rely on: cross-pipe commit
// ordering does not exist in the paper either, the ownership protocol
// tolerates cross-object reordering by construction (o_ts arbitration), and
// VAL-vs-INV races on one object are impossible across shards because both
// carry the same ObjectID. Unkeyed kinds (membership, directory, observability)
// keep today's inline delivery. Shard queues
// are unbounded FIFOs: the commit pipeline's MaxPipelineDepth backpressure
// bounds them in steady state, and never blocking the transport goroutine
// rules out delivery deadlocks between mutually-loaded nodes.
type Router struct {
	mu       sync.RWMutex
	handlers [64]Handler
	fallback Handler
	ticks    []func()

	shards []*shardQ
}

// NewRouter returns an empty router.
func NewRouter() *Router { return &Router{} }

// Handle registers h for message kind k, replacing any previous handler.
func (r *Router) Handle(k wire.Kind, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handlers[k] = h
}

// HandleMany registers h for several kinds at once.
func (r *Router) HandleMany(h Handler, kinds ...wire.Kind) {
	for _, k := range kinds {
		r.Handle(k, h)
	}
}

// Fallback registers the handler for kinds with no specific handler.
func (r *Router) Fallback(h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fallback = h
}

// OnTick registers f to run on every transport delivery tick (see
// TickNotifier); install Router.Tick as the transport's tick handler.
func (r *Router) OnTick(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ticks = append(r.ticks, f)
}

// Tick fans a delivery tick out to every registered hook. In sharded mode
// the tick is forwarded as a queue token to every shard that received a
// message since its last token, so hooks still run *after* the frame's
// messages were handled (the property engines use to coalesce responses);
// the inline run is reserved for frames whose messages all stayed inline —
// running it when tokens were pushed would fire the hooks mid-frame and
// split the coalesced response batch.
func (r *Router) Tick() {
	r.mu.RLock()
	shards := r.shards
	r.mu.RUnlock()
	forwarded := false
	for _, s := range shards {
		if s.pushTickIfDirty() {
			forwarded = true
		}
	}
	if !forwarded {
		r.runTicks()
	}
}

func (r *Router) runTicks() {
	r.mu.RLock()
	ticks := r.ticks
	r.mu.RUnlock()
	for _, f := range ticks {
		f()
	}
}

// Dispatch routes one message; it is the Handler to install on a Transport.
func (r *Router) Dispatch(from wire.NodeID, m wire.Msg) {
	r.mu.RLock()
	h := r.handlers[m.Kind()]
	if h == nil {
		h = r.fallback
	}
	shards := r.shards
	r.mu.RUnlock()
	if h == nil {
		return
	}
	if len(shards) > 0 {
		if key, ok := shardKey(m); ok {
			shards[key%uint64(len(shards))].push(shardItem{from: from, m: m, h: h})
			return
		}
	}
	h(from, m)
}

// shardKey maps a message to its FIFO domain: commit traffic to its pipe,
// ownership traffic to its object. Unkeyed kinds return false and stay on
// the inline path. Keys are Fibonacci-mixed so dense object ids and pipe ids
// spread across shards.
func shardKey(m wire.Msg) (uint64, bool) {
	const mix = 0x9E3779B97F4A7C15
	switch v := m.(type) {
	case *wire.CommitInv:
		return pipeKey(v.Tx.Pipe) * mix, true
	case *wire.CommitAck:
		return pipeKey(v.Tx.Pipe) * mix, true
	case *wire.CommitVal:
		return pipeKey(v.Tx.Pipe) * mix, true
	case *wire.OwnReq:
		return uint64(v.Obj) * mix, true
	case *wire.OwnInv:
		return uint64(v.Obj) * mix, true
	case *wire.OwnAck:
		return uint64(v.Obj) * mix, true
	case *wire.OwnVal:
		return uint64(v.Obj) * mix, true
	case *wire.OwnNack:
		return uint64(v.Obj) * mix, true
	case *wire.OwnResp:
		return uint64(v.Obj) * mix, true
	}
	return 0, false
}

func pipeKey(p wire.PipeID) uint64 {
	return uint64(p.Node)<<16 | uint64(p.Worker)
}

// EnableSharding starts n handler goroutines and routes keyed traffic to
// them (see the Router doc). n <= 1 is a no-op: dispatch stays inline.
// Call CloseShards when the node shuts down. Enabling must happen before
// traffic flows; re-enabling on a live router is not supported.
func (r *Router) EnableSharding(n int) {
	if n <= 1 {
		return
	}
	shards := make([]*shardQ, n)
	for i := range shards {
		s := &shardQ{queue: newQueue[shardItem](0), router: r}
		shards[i] = s
		go s.run(s.handle)
	}
	r.mu.Lock()
	r.shards = shards
	r.mu.Unlock()
}

// CloseShards stops the shard goroutines; queued messages are dropped (the
// node is shutting down).
func (r *Router) CloseShards() {
	r.mu.Lock()
	shards := r.shards
	r.shards = nil
	r.mu.Unlock()
	for _, s := range shards {
		s.close()
	}
}

// shardItem is one queued dispatch; a nil m is a tick token.
type shardItem struct {
	from wire.NodeID
	m    wire.Msg
	h    Handler
}

// shardQ is one shard: an unbounded queue (see the Router doc for why) whose
// consumer goroutine runs the handlers, plus the tick-token bookkeeping.
type shardQ struct {
	*queue[shardItem]
	router *Router
	// dirty: a message was queued since the last tick token. Set after the
	// message is in the queue, so whichever Tick clears it queues its token
	// behind that message.
	dirty atomic.Bool
}

func (s *shardQ) push(it shardItem) {
	if s.queue.push(it) {
		s.dirty.Store(true)
	}
}

// pushTickIfDirty queues a tick token behind the shard's pending messages if
// any arrived since the last token; it reports whether a token was queued.
func (s *shardQ) pushTickIfDirty() bool {
	return s.dirty.Swap(false) && s.queue.push(shardItem{})
}

func (s *shardQ) handle(it shardItem) {
	if it.m == nil {
		s.router.runTicks()
		return
	}
	it.h(it.from, it.m)
}
