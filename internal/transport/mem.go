package transport

import (
	"sync"
	"sync/atomic"

	"zeus/internal/wire"
)

// Hub is a perfect in-process fabric: exactly-once, per-sender FIFO, no loss.
// It is the unit-test substrate; protocol tests that need faults use the
// Reliable transport over netsim instead. Each node's inbox is a queue (see
// queue.go) bounded at inboxBound frames: an idle node holds no buffer, and a
// sender that finds the inbox full blocks until the node's dispatch goroutine
// takes the backlog or the node closes.
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
	// free holds dispatched batch slices for the next SendBatch towards this
	// node: the frame's slice is the hub's own copy (SendBatch's no-retain
	// contract), so once dispatch has handed its messages to the handler it
	// goes back here instead of to the GC. Bounded in depth and in slice
	// capacity (maxFreeBatchCap), so a burst cannot pin memory.
	free chan []wire.Msg
}

// memFrame is one delivery hop: a single message (msg) or a batch.
type memFrame struct {
	from  wire.NodeID
	msg   wire.Msg
	batch []wire.Msg
}

// freeBatches / maxFreeBatchCap bound a node's recycled batch slices: at most
// 16 slices of at most 128 message slots (32 KiB) stay parked per node.
// inboxBound is the backlog at which a sender blocks — a backstop against a
// runaway producer, 400 times the deepest backlog the benchmark's hub
// workloads build (161 frames; CHANGES.md, PR 17).
const (
	freeBatches     = 16
	maxFreeBatchCap = 128
	inboxBound      = 65536
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
		free:   make(chan []wire.Msg, freeBatches),
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

// SetTickHandler installs the delivery-tick hook, run after each inbox
// frame's messages (one, or a SendBatch's worth) have been dispatched.
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
// and receivers never alias sender memory. The encode buffer is pooled.
//
// Exception — the reliable-commit hot path (R-INV/R-ACK/R-VAL) is delivered
// zero-copy: the receiver gets the sender's message pointer with no
// marshal/unmarshal round trip. (Ownership messages are not exempt — what a
// node addresses to itself the ownership engine handles inline, and never
// sends.) This is safe because commit-protocol messages are immutable once
// handed to the transport (the engine copy-on-writes them for epoch rewrites,
// see commit.OnViewChange/resendLoop) and Update.Data/object data are never
// mutated in place anywhere (writes replace the slice wholesale). Byte
// accounting uses the exact encoded size so bandwidth numbers stay comparable
// with the real fabrics.
func (t *MemTransport) roundtrip(m wire.Msg) (wire.Msg, error) {
	if n, ok := wire.CommitSize(m); ok {
		t.hub.msgs.Add(1)
		t.hub.bytes.Add(uint64(n))
		return m, nil
	}
	buf := wire.GetBuf()
	buf.B = wire.AppendMarshal(buf.B, m)
	t.hub.msgs.Add(1)
	t.hub.bytes.Add(uint64(len(buf.B)))
	mm, err := wire.Unmarshal(buf.B)
	wire.PutBuf(buf)
	return mm, err
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

func (t *MemTransport) deliver(to wire.NodeID, f memFrame) error {
	if dst := t.peer(to); dst != nil {
		t.enqueue(dst, f)
	}
	return nil
}

func (t *MemTransport) enqueue(dst *MemTransport, f memFrame) {
	t.hub.frames.Add(1)
	dst.inbox.push(f) // a closed node drops it, like a network does
}

// Send delivers m to the peer's inbox (exactly once, FIFO per sender).
func (t *MemTransport) Send(to wire.NodeID, m wire.Msg) error {
	if err := t.sendable(); err != nil {
		return err
	}
	mm, err := t.roundtrip(m)
	if err != nil {
		return err
	}
	return t.deliver(to, memFrame{from: t.self, msg: mm})
}

// SendBatch delivers msgs to the peer as one inbox hop, preserving order. The
// frame carries the hub's own slice (msgs is the caller's again on return,
// see Transport.SendBatch), taken from the destination's free list when one is
// parked there.
func (t *MemTransport) SendBatch(to wire.NodeID, msgs []wire.Msg) error {
	if err := t.sendable(); err != nil {
		return err
	}
	if len(msgs) == 0 {
		return nil
	}
	dst := t.peer(to)
	var batch []wire.Msg
	if dst != nil {
		select {
		case batch = <-dst.free:
		default:
			batch = make([]wire.Msg, 0, len(msgs))
		}
	}
	for _, m := range msgs {
		mm, err := t.roundtrip(m) // a dropped message still counts as carried
		if err != nil {
			return err
		}
		batch = append(batch, mm)
	}
	if dst != nil {
		t.enqueue(dst, memFrame{from: t.self, batch: batch})
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
	if n, ok := wire.CommitSize(m); ok {
		t.hub.msgs.Add(uint64(len(dsts)))
		t.hub.bytes.Add(uint64(n) * uint64(len(dsts)))
		var err error
		for _, to := range dsts {
			if e := t.deliver(to, memFrame{from: t.self, msg: m}); e != nil && err == nil {
				err = e
			}
		}
		return err
	}
	buf := wire.GetBuf()
	buf.B = wire.AppendMarshal(buf.B, m)
	t.hub.msgs.Add(uint64(len(dsts)))
	t.hub.bytes.Add(uint64(len(buf.B)) * uint64(len(dsts)))
	var err error
	for _, to := range dsts {
		mm, e := wire.Unmarshal(buf.B)
		if e != nil {
			err = e
			continue
		}
		if e := t.deliver(to, memFrame{from: t.self, msg: mm}); e != nil && err == nil {
			err = e
		}
	}
	wire.PutBuf(buf)
	return err
}

// dispatch hands one inbox frame to the handler, then runs the delivery tick.
func (t *MemTransport) dispatch(f memFrame) {
	if t.down.Load() {
		return
	}
	h, _ := t.handler.Load().(Handler)
	if h == nil {
		return
	}
	if f.batch != nil {
		for _, m := range f.batch {
			h(f.from, m)
		}
		t.recycle(f.batch)
	} else {
		h(f.from, f.msg)
	}
	if tf, _ := t.tick.Load().(func()); tf != nil {
		tf()
	}
}

// recycle parks a dispatched batch slice for the next SendBatch towards this
// node. The handler (or the router's shard queues) holds the messages by
// now, never the slice; the slots are cleared so a parked slice keeps no
// message alive.
func (t *MemTransport) recycle(batch []wire.Msg) {
	if cap(batch) > maxFreeBatchCap {
		return
	}
	clear(batch)
	select {
	case t.free <- batch[:0]:
	default:
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
