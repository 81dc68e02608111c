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
// goroutine takes the backlog or the node closes.
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

// Bytes returns the marshalled payload bytes carried so far (an approximation
// of network bandwidth used, for the bandwidth comparisons in §8).
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
	// dec decodes what roundtrip marshals towards this node, so the records
	// of a decoded ownership message come from this node's chunks like on
	// the fabrics with a read loop. Senders are many goroutines: decMu
	// serializes them for the ~150 ns a decode takes.
	decMu sync.Mutex
	dec   wire.Decoder
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

// roundtrip runs m through the codec so that tests exercise serialization
// and receivers never alias sender memory: it is marshalled into a pooled
// buffer and decoded through dst's Decoder. A nil dst is a frame the fabric
// drops: counted as carried, not decoded.
//
// Exception — the reliable-commit hot path (R-INV/R-ACK/R-VAL) is delivered
// zero-copy: the receiver gets the sender's message pointer with no
// marshal/unmarshal round trip. Ownership messages are not exempt — what a
// node addresses to itself the ownership engine handles inline, and never
// sends; what does cross the hub is decoded into the destination's chunks, a
// sixteenth of an allocation a message, so the round trip that keeps the
// codec and the no-aliasing rule under every protocol test stays affordable.
// The exemption is safe because commit-protocol messages are immutable once
// handed to the transport (the engine copy-on-writes them for epoch rewrites,
// see commit.Engine.resend) and Update.Data/object data are never
// mutated in place anywhere (writes replace the slice wholesale). Byte
// accounting uses the exact encoded size so bandwidth numbers stay comparable
// with the real fabrics.
func (t *MemTransport) roundtrip(dst *MemTransport, m wire.Msg) (wire.Msg, error) {
	if n, ok := wire.CommitSize(m); ok {
		t.hub.msgs.Add(1)
		t.hub.bytes.Add(uint64(n))
		return m, nil
	}
	buf := wire.GetBuf()
	buf.B = wire.AppendMarshal(buf.B, m)
	t.hub.msgs.Add(1)
	t.hub.bytes.Add(uint64(len(buf.B)))
	mm, err := dst.decode(buf.B)
	wire.PutBuf(buf)
	return mm, err
}

// decode parses one marshalled message addressed to this node; a nil node
// (see roundtrip) decodes nothing.
func (t *MemTransport) decode(b []byte) (wire.Msg, error) {
	if t == nil {
		return nil, nil
	}
	t.decMu.Lock()
	defer t.decMu.Unlock()
	return t.dec.Unmarshal(b)
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
	mm, err := t.roundtrip(dst, m)
	if err != nil {
		return err
	}
	t.enqueue(dst, memFrame{from: t.self, msg: mm})
	return nil
}

// SendBatch delivers msgs to the peer as one inbox hop, preserving order: a
// batch is len(msgs) inbox entries pushed under one lock, so nothing comes
// between them, and the receiver's delivery tick follows the last. The
// entries are staged on this stack (msgs is the caller's again on return, see
// Transport.SendBatch); nothing of the batch but its messages is allocated.
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
		mm, err := t.roundtrip(dst, m) // a dropped message still counts as carried
		if err != nil {
			return err
		}
		fs = append(fs, memFrame{from: t.self, msg: mm, more: true})
	}
	fs[len(fs)-1].more = false
	if dst != nil {
		t.hub.frames.Add(1)
		dst.inbox.pushAll(fs)
	}
	return nil
}

// Multicast sends m to every destination, marshalling once. Each receiver
// gets its own decoded copy (no cross-node aliasing), except commit-protocol
// messages, which ride the zero-copy fast path (see roundtrip).
func (t *MemTransport) Multicast(dsts []wire.NodeID, m wire.Msg) error {
	if err := t.sendable(); err != nil {
		return err
	}
	if len(dsts) == 0 {
		return nil
	}
	n, zeroCopy := wire.CommitSize(m)
	var buf *wire.Buf
	if !zeroCopy {
		buf = wire.GetBuf()
		buf.B = wire.AppendMarshal(buf.B, m)
		n = len(buf.B)
	}
	t.hub.msgs.Add(uint64(len(dsts)))
	t.hub.bytes.Add(uint64(n) * uint64(len(dsts)))
	var err error
	for _, to := range dsts {
		dst, mm := t.peer(to), m
		if !zeroCopy {
			var e error
			if mm, e = dst.decode(buf.B); e != nil {
				err = e
				continue
			}
		}
		t.enqueue(dst, memFrame{from: t.self, msg: mm})
	}
	wire.PutBuf(buf) // nil on the zero-copy path: a no-op
	return err
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
