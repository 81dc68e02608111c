package transport

import (
	"sync"
	"sync/atomic"

	"zeus/internal/wire"
)

// Hub is a perfect in-process fabric: exactly-once, per-sender FIFO, no loss.
// It is the unit-test substrate; protocol tests that need faults use the
// Reliable transport over netsim instead. Each node's inbox is a queue (see
// queue.go) bounded at inboxBound messages: an idle node holds no buffer, and
// a sender that finds the inbox full blocks until the node's dispatch
// goroutine takes the backlog or the node closes. A message is delivered as
// the sender's pointer, never encoded (see MemTransport.count).
type Hub struct {
	mu    sync.RWMutex
	nodes map[wire.NodeID]*MemTransport

	msgs   atomic.Uint64
	frames atomic.Uint64
	bytes  atomic.Uint64
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{nodes: make(map[wire.NodeID]*MemTransport)}
}

// Messages returns the number of messages carried so far (a multicast or
// batch counts once per message per destination, like the real fabrics).
func (h *Hub) Messages() uint64 { return h.msgs.Load() }

// Frames returns delivery hops carried: a SendBatch counts once however many
// messages it coalesces, mirroring the reliable transport's frame batching.
func (h *Hub) Frames() uint64 { return h.frames.Load() }

// Bytes returns the bytes the messages carried so far would have encoded to,
// wire.Size each (the network bandwidth a deployment would use, for the
// bandwidth comparisons in §8).
func (h *Hub) Bytes() uint64 { return h.bytes.Load() }

// MemTransport is one node's attachment to a Hub.
type MemTransport struct {
	hub     *Hub
	self    wire.NodeID
	inbox   *queue[memFrame]
	handler atomic.Value // Handler
	tick    atomic.Value // func(), invoked after each frame's dispatch
	closed  chan struct{}
	once    sync.Once
	down    atomic.Bool
}

// memFrame is one inbox entry: a message and who sent it. A SendBatch is a
// run of entries pushed together, all but the last marked more.
type memFrame struct {
	msg  wire.Msg
	from wire.NodeID
	more bool // the same batch continues: the delivery tick waits for its last
}

// inboxBound is the backlog, in messages, at which a sender blocks — a
// backstop against a runaway producer, two orders of magnitude above the
// deepest backlog the benchmark's hub workloads build (161 frames of at most
// a few messages each; CHANGES.md, PR 17). batchStage is the longest
// SendBatch staged on the sender's stack; a longer one (1 in 2 500 on
// smallbank_local) stages in a slice of its own.
const (
	inboxBound = 65536
	batchStage = 32
)

// Node returns (creating if needed) the transport for node id.
func (h *Hub) Node(id wire.NodeID) Transport { return h.node(id) }

func (h *Hub) node(id wire.NodeID) *MemTransport {
	h.mu.Lock()
	defer h.mu.Unlock()
	if t, ok := h.nodes[id]; ok {
		return t
	}
	t := &MemTransport{
		hub:    h,
		self:   id,
		inbox:  newQueue[memFrame](inboxBound),
		closed: make(chan struct{}),
	}
	h.nodes[id] = t
	go t.inbox.run(t.dispatch)
	return t
}

// SetDown makes the node drop all inbound and outbound traffic (crash-stop).
func (h *Hub) SetDown(id wire.NodeID, down bool) {
	h.node(id).down.Store(down)
}

// Close closes every node's transport.
func (h *Hub) Close() {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, t := range h.nodes {
		_ = t.Close()
	}
}

// Self returns the local node id.
func (t *MemTransport) Self() wire.NodeID { return t.self }

// SetHandler installs the inbound handler.
func (t *MemTransport) SetHandler(h Handler) { t.handler.Store(h) }

// SetTickHandler installs the delivery-tick hook, run after each sender's
// unit (one message, or a SendBatch's worth) has been dispatched.
func (t *MemTransport) SetTickHandler(f func()) { t.tick.Store(f) }

func (t *MemTransport) sendable() error {
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	if t.down.Load() {
		return ErrClosed
	}
	return nil
}

// count accounts n deliveries of m as carried: one message and wire.Size(m)
// bytes each, as if encoded. The hub hands every message over by pointer —
// the receiver gets the sender's record, with no codec round trip — so the
// rule that keeps that safe is the one every fabric's senders and handlers
// keep anyway: a sender fills a message once, before the send, and never
// writes it again (zeuslint frozen); a handler never writes a message it was
// given (cluster's TestHandlersNeverWriteWhatTheyReceive); payloads
// (Update.Data, an ACK's Data) are replace-only. The codec itself is held by
// the TCP and reliable fabrics, which really encode, and by the wire
// package's round-trip and fuzz tests. Byte accounting uses the exact encoded
// size, so bandwidth numbers stay comparable with the real fabrics. A frame
// the fabric drops (see peer) still counts as carried.
func (t *MemTransport) count(m wire.Msg, n int) {
	t.hub.msgs.Add(uint64(n))
	t.hub.bytes.Add(uint64(wire.Size(m) * n))
}

// peer returns the destination's transport, or nil when the frame would be
// silently dropped, like a network does (unknown or crashed node).
func (t *MemTransport) peer(to wire.NodeID) *MemTransport {
	t.hub.mu.RLock()
	dst, ok := t.hub.nodes[to]
	t.hub.mu.RUnlock()
	if !ok || dst.down.Load() {
		return nil
	}
	return dst
}

// enqueue hands dst a single message as one delivery hop; a nil dst (see
// peer) or a closed node drops it, like a network does.
func (t *MemTransport) enqueue(dst *MemTransport, f memFrame) {
	if dst != nil {
		t.hub.frames.Add(1)
		dst.inbox.push(f)
	}
}

// Send delivers m to the peer's inbox (exactly once, FIFO per sender).
func (t *MemTransport) Send(to wire.NodeID, m wire.Msg) error {
	if err := t.sendable(); err != nil {
		return err
	}
	dst := t.peer(to)
	t.count(m, 1)
	t.enqueue(dst, memFrame{from: t.self, msg: m})
	return nil
}

// SendBatch delivers msgs to the peer as one inbox hop, preserving order: a
// batch is len(msgs) inbox entries pushed under one lock, so nothing comes
// between them, and the receiver's delivery tick follows the last. The
// entries are staged on this stack (msgs is the caller's again on return, see
// Transport.SendBatch); a batch of up to batchStage messages allocates
// nothing.
func (t *MemTransport) SendBatch(to wire.NodeID, msgs []wire.Msg) error {
	if err := t.sendable(); err != nil {
		return err
	}
	if len(msgs) == 0 {
		return nil
	}
	dst := t.peer(to)
	var stage [batchStage]memFrame
	fs := stage[:0]
	if len(msgs) > len(stage) {
		fs = make([]memFrame, 0, len(msgs))
	}
	for _, m := range msgs {
		t.count(m, 1)
		fs = append(fs, memFrame{from: t.self, msg: m, more: true})
	}
	fs[len(fs)-1].more = false
	if dst != nil {
		t.hub.frames.Add(1)
		dst.inbox.pushAll(fs)
	}
	return nil
}

// Multicast sends m to every destination: each gets the sender's pointer,
// like a Send to each (see count).
func (t *MemTransport) Multicast(dsts []wire.NodeID, m wire.Msg) error {
	if err := t.sendable(); err != nil {
		return err
	}
	if len(dsts) == 0 {
		return nil
	}
	t.count(m, len(dsts))
	for _, to := range dsts {
		t.enqueue(t.peer(to), memFrame{from: t.self, msg: m})
	}
	return nil
}

// dispatch hands one inbox entry to the handler and, unless more of its batch
// follow, runs the delivery tick.
func (t *MemTransport) dispatch(f memFrame) {
	if t.down.Load() {
		return
	}
	h, _ := t.handler.Load().(Handler)
	if h == nil {
		return
	}
	h(f.from, f.msg)
	if f.more {
		return
	}
	if tf, _ := t.tick.Load().(func()); tf != nil {
		tf()
	}
}

// Close stops the dispatch goroutine; frames still queued are dropped.
func (t *MemTransport) Close() error {
	t.once.Do(func() {
		close(t.closed)
		t.inbox.close()
	})
	return nil
}

var _ Transport = (*MemTransport)(nil)
var _ Transport = (*Reliable)(nil)
var _ Flusher = (*Reliable)(nil)
