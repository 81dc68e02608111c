package transport

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/netsim"
	"zeus/internal/retry"
	"zeus/internal/wire"
)

// ReliableConfig tunes the retransmission, batching and delayed-ack machinery.
type ReliableConfig struct {
	// RTO is the initial retransmission timeout, used until RTT samples
	// arrive; after that the per-peer adaptive estimator (SRTT/RTTVAR, RFC
	// 6298 via retry.RTOEstimator) takes over.
	RTO time.Duration
	// MinRTO / MaxRTO clamp the adaptive timeout. MinRTO is floored at
	// twice the larger of FlushInterval and the host's measured timer
	// granularity, so a delayed ack can never look like a loss.
	MinRTO time.Duration
	MaxRTO time.Duration
	// DeliveryDepth bounds the per-peer in-order delivery queue (frames).
	DeliveryDepth int

	// WindowFrames is the Nagle-style batching trigger: egress flushes
	// immediately while fewer than this many frames are unacknowledged
	// (idle links get minimum latency), and queues into batch frames
	// beyond it, clocked out by returning acks (default 16; keep it above
	// AckEvery or sender and receiver deadlock onto their timers, the
	// classic Nagle/delayed-ack interaction).
	WindowFrames int
	// FlushInterval bounds how long queued messages and delayed acks wait
	// for more traffic to coalesce with (default 100µs). It is a backstop:
	// on hosts with coarse timers it can stretch to the clock granularity,
	// which is why the common case is clocked by acks and counts instead.
	FlushInterval time.Duration
	// AckEvery sends a cumulative ack after every Kth in-order data frame
	// (default 8); frames in between ride the FlushInterval timer or
	// piggyback on reverse data (TCP-style delayed ack). Timer-driven acks
	// carry a "delayed" flag so the sender's RTT estimator ignores their
	// inflated samples.
	AckEvery int
}

const (
	// dupAckThreshold is the number of duplicate pure ACKs that trigger a
	// fast retransmission of the first unacknowledged frame (à la TCP fast
	// retransmit). Out-of-order arrivals are always acked immediately —
	// delayed acks never mute this signal.
	dupAckThreshold = 2
	// A peer's egress queue is flushed once the pending batch payload
	// reaches maxBatchBytes or maxBatchMsgs messages are queued.
	maxBatchBytes = 16 << 10
	maxBatchMsgs  = 64
)

// DefaultReliableConfig matches the simulated fabric's latency scale.
func DefaultReliableConfig() ReliableConfig {
	return ReliableConfig{RTO: 2 * time.Millisecond, DeliveryDepth: 8192}
}

// frame header layout: [flags:1][seq:8][ack:8] + payload. A batch frame's
// payload is a wire batch (length-prefixed messages); a plain data frame
// carries one marshalled message. Sequence numbers are per *frame*, so a
// batch is acknowledged, retransmitted and delivered as a unit.
// flagDelayedAck marks a pure ack that waited out the delayed-ack timer:
// its timing says nothing about the path, so the RTT estimator skips it.
const (
	flagData       = 1 << 0
	flagBatch      = 1 << 1
	flagDelayedAck = 1 << 2
	hdrLen         = 17
)

// Reliable implements Transport over a lossy netsim endpoint using per-peer
// sequence numbers, cumulative acknowledgements, retransmission and
// deduplication. It delivers messages exactly once, in per-peer FIFO order,
// mirroring the paper's low-level reliable messaging (§3.1).
//
// The hot path is batched end-to-end: Send marshals into a per-peer egress
// queue (outside the retransmission lock), the queue is flushed into a single
// multi-message frame on size/count thresholds, on ack arrival, when the peer
// is idle, or at the latest after FlushInterval; receivers coalesce
// acknowledgements TCP-style (every AckEvery-th frame or a timer), keeping
// the immediate duplicate ACK on out-of-order arrival so fast retransmit
// still recovers holes in under an RTT. The adaptive per-peer RTO (SRTT/
// RTTVAR with exponential back-off, Karn's rule) catches tail losses.
//
// In-order frames reach the handler through one queue per peer (queue.go)
// and that peer's delivery goroutine. It holds only the frames not yet
// dispatched; at DeliveryDepth of them the receive loop, and with it every
// acknowledgement, waits until the backlog is taken or the transport closes.
type Reliable struct {
	ep  *netsim.Endpoint
	cfg ReliableConfig

	mu      sync.Mutex
	peers   map[wire.NodeID]*peerState
	handler atomic.Value // Handler
	tick    atomic.Value // func(), invoked after each frame's dispatch
	closed  chan struct{}
	once    sync.Once

	retransmits     atomic.Uint64
	fastRetransmits atomic.Uint64
	acksSent        atomic.Uint64
	countedAcks     atomic.Uint64
	dataFrames      atomic.Uint64
	msgsSent        atomic.Uint64
	decodeDrops     atomic.Uint64
	corruptFrames   atomic.Uint64
	sendErrs        atomic.Uint64
}

// peerState locks nest egMu > sendMu > recvMu (outermost first); any path
// may take an inner lock while holding an outer one, never the reverse.
type peerState struct {
	id wire.NodeID

	// Egress queue: marshalled, length-prefixed messages awaiting a frame.
	egMu    sync.Mutex
	egBuf   []byte
	egCount int

	// Sender side.
	sendMu   sync.Mutex
	nextSeq  uint64
	unacked  map[uint64]*unackedFrame
	est      *retry.RTOEstimator
	cumAck   uint64 // highest cumulative ack received from the peer
	dupAcks  int    // consecutive duplicate pure acks at cumAck
	fastRetx uint64 // highest seq already fast-retransmitted (one shot per hole)

	// Receiver side.
	recvMu   sync.Mutex
	expected uint64
	pending  map[uint64]pendingFrame
	ackOwed  int       // in-order data frames received since the last ack went out
	lastData time.Time // last in-order data frame arrival (quickack detection)

	deliver *queue[delivery]
}

type unackedFrame struct {
	buf  []byte
	sent time.Time
	retx bool // retransmitted at least once (Karn: no RTT sample)
}

type pendingFrame struct {
	payload []byte
	batch   bool
}

type delivery struct {
	payload []byte
	batch   bool
}

// NewReliable wraps a netsim endpoint in the reliable messaging layer.
func NewReliable(ep *netsim.Endpoint, cfg ReliableConfig) *Reliable {
	if cfg.RTO <= 0 {
		cfg.RTO = 2 * time.Millisecond
	}
	if cfg.WindowFrames <= 0 {
		cfg.WindowFrames = 16
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 100 * time.Microsecond
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 8
	}
	// A delayed ack waits up to ~FlushInterval — in practice up to the
	// host's real timer granularity, which containers stretch to a
	// millisecond or more. The retransmission timeout must clear that
	// window with margin, or every traffic pause (sender stalled below
	// AckEvery with only the timer left to ack) turns into a spurious
	// retransmission storm.
	cfg.MinRTO = max(cfg.MinRTO, 2*cfg.FlushInterval, 2*retry.TimerGranularity())
	if cfg.MaxRTO <= 0 {
		cfg.MaxRTO = 100 * time.Millisecond
		if cfg.MaxRTO < 4*cfg.RTO {
			cfg.MaxRTO = 4 * cfg.RTO
		}
	}
	if cfg.DeliveryDepth <= 0 {
		cfg.DeliveryDepth = 8192
	}
	r := &Reliable{
		ep:     ep,
		cfg:    cfg,
		peers:  make(map[wire.NodeID]*peerState),
		closed: make(chan struct{}),
	}
	go r.recvLoop()
	go r.retransmitLoop()
	go r.flushLoop()
	return r
}

// Self returns the local node id.
func (r *Reliable) Self() wire.NodeID { return r.ep.ID() }

// SetHandler installs the inbound handler.
func (r *Reliable) SetHandler(h Handler) { r.handler.Store(h) }

// SetTickHandler installs a delivery-tick hook, invoked once after the
// messages of each inbound frame (single or batch) have been dispatched.
// Protocol engines use it to flush responses they coalesced across the
// frame — the "ack the whole batch at once" half of the batching story.
func (r *Reliable) SetTickHandler(f func()) { r.tick.Store(f) }

// Retransmits reports how many frames were resent on timeout (diagnostics).
func (r *Reliable) Retransmits() uint64 { return r.retransmits.Load() }

// FastRetransmits reports how many frames duplicate ACKs resent early.
func (r *Reliable) FastRetransmits() uint64 { return r.fastRetransmits.Load() }

// DataFramesSent reports first transmissions of data frames (retransmissions
// are counted separately by Retransmits/FastRetransmits).
func (r *Reliable) DataFramesSent() uint64 { return r.dataFrames.Load() }

// PureAcksSent reports standalone acknowledgement frames sent (acks that
// piggybacked on data frames are not counted).
func (r *Reliable) PureAcksSent() uint64 { return r.acksSent.Load() }

// CountedAcksSent reports the pure acks the frame count decided: sent because
// AckEvery in-order frames were owed. The rest of PureAcksSent — the flush
// timer's, an idle gap's quickack, a duplicate's or a hole's re-ack — depend
// on the clock and the path, so only this share is bounded by the traffic
// alone: at most one per AckEvery data frames.
func (r *Reliable) CountedAcksSent() uint64 { return r.countedAcks.Load() }

// MessagesSent reports wire.Msg values accepted for transmission; divided by
// DataFramesSent it gives the average batch size.
func (r *Reliable) MessagesSent() uint64 { return r.msgsSent.Load() }

// DecodeDrops reports inbound messages dropped because they failed to
// unmarshal (a corrupt batch element or payload). Any non-zero value means
// delivered data was lost above the retransmission layer.
func (r *Reliable) DecodeDrops() uint64 { return r.decodeDrops.Load() }

// CorruptFrames reports inbound frames discarded before sequencing (shorter
// than a frame header).
func (r *Reliable) CorruptFrames() uint64 { return r.corruptFrames.Load() }

// SendErrors reports endpoint send failures (data, ack or retransmission);
// the retransmission machinery recovers the frames, but a growing count
// flags a dying link.
func (r *Reliable) SendErrors() uint64 { return r.sendErrs.Load() }

// InFlight reports frames sent and not yet cumulatively acknowledged.
func (r *Reliable) InFlight() int {
	n := 0
	for _, p := range r.snapshotPeers() {
		p.sendMu.Lock()
		n += len(p.unacked)
		p.sendMu.Unlock()
	}
	return n
}

func (r *Reliable) peer(id wire.NodeID) *peerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.peers[id]
	if !ok {
		p = &peerState{
			id:       id,
			nextSeq:  1,
			expected: 1,
			unacked:  make(map[uint64]*unackedFrame),
			pending:  make(map[uint64]pendingFrame),
			est:      retry.NewRTOEstimator(r.cfg.RTO, r.cfg.MinRTO, r.cfg.MaxRTO),
			deliver:  newQueue[delivery](r.cfg.DeliveryDepth),
		}
		r.peers[id] = p
		select {
		case <-r.closed: // Close has swept r.peers already: this one is born closed
			p.deliver.close()
		default:
			dec := new(wire.Decoder) // this peer's stream; the delivery goroutine is its only user
			go p.deliver.run(func(d delivery) { r.deliverFrame(id, dec, d) })
		}
	}
	return p
}

func (r *Reliable) snapshotPeers() []*peerState {
	r.mu.Lock()
	peers := make([]*peerState, 0, len(r.peers))
	for _, p := range r.peers {
		peers = append(peers, p)
	}
	r.mu.Unlock()
	return peers
}

// Send transmits m reliably to the peer. The message is marshalled into the
// peer's egress queue (no lock shared with the retransmitter) and leaves in
// the next frame: immediately when the link is idle or the batch is full,
// otherwise within FlushInterval.
func (r *Reliable) Send(to wire.NodeID, m wire.Msg) error {
	select {
	case <-r.closed:
		return ErrClosed
	default:
	}
	p := r.peer(to)
	r.msgsSent.Add(1)
	p.egMu.Lock()
	p.egBuf = wire.AppendMessage(p.egBuf, m)
	p.egCount++
	full := len(p.egBuf) >= maxBatchBytes || p.egCount >= maxBatchMsgs
	p.egMu.Unlock()
	if full || r.belowWindow(p) {
		return r.flushPeer(p)
	}
	return nil
}

// SendBatch enqueues msgs back-to-back so they leave in as few frames as
// possible (one, below the batch thresholds).
func (r *Reliable) SendBatch(to wire.NodeID, msgs []wire.Msg) error {
	select {
	case <-r.closed:
		return ErrClosed
	default:
	}
	if len(msgs) == 0 {
		return nil
	}
	p := r.peer(to)
	r.msgsSent.Add(uint64(len(msgs)))
	var err error
	p.egMu.Lock()
	for _, m := range msgs {
		p.egBuf = wire.AppendMessage(p.egBuf, m)
		p.egCount++
		// Enforce the frame bound per message, not per batch: a caller's
		// batch larger than the thresholds leaves as several frames.
		if len(p.egBuf) >= maxBatchBytes || p.egCount >= maxBatchMsgs {
			if e := r.flushPeerLocked(p); e != nil && err == nil {
				err = e
			}
		}
	}
	p.egMu.Unlock()
	if r.belowWindow(p) {
		if e := r.flushPeer(p); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// Multicast sends one message to several peers with a single marshal: the
// encoded bytes are appended to every destination's egress queue.
func (r *Reliable) Multicast(dsts []wire.NodeID, m wire.Msg) error {
	select {
	case <-r.closed:
		return ErrClosed
	default:
	}
	if len(dsts) == 0 {
		return nil
	}
	enc := wire.GetBuf()
	enc.B = wire.AppendMessage(enc.B, m)
	var err error
	for _, to := range dsts {
		p := r.peer(to)
		r.msgsSent.Add(1)
		p.egMu.Lock()
		p.egBuf = append(p.egBuf, enc.B...)
		p.egCount++
		full := len(p.egBuf) >= maxBatchBytes || p.egCount >= maxBatchMsgs
		p.egMu.Unlock()
		if full || r.belowWindow(p) {
			if e := r.flushPeer(p); e != nil && err == nil {
				err = e
			}
		}
	}
	wire.PutBuf(enc)
	return err
}

// belowWindow reports whether p has spare in-flight budget — then queued
// egress leaves immediately for latency; at or above the window, egress
// batches up and the returning acks clock it out.
func (r *Reliable) belowWindow(p *peerState) bool {
	p.sendMu.Lock()
	below := len(p.unacked) < r.cfg.WindowFrames
	p.sendMu.Unlock()
	return below
}

// Flush forces every peer's queued egress onto the wire.
func (r *Reliable) Flush() {
	for _, p := range r.snapshotPeers() {
		_ = r.flushPeer(p)
	}
}

// flushPeer drains p's egress queue into one frame and transmits it. The
// egress lock is held through the endpoint send so concurrent flushes cannot
// reorder frames on the wire.
func (r *Reliable) flushPeer(p *peerState) error {
	p.egMu.Lock()
	err := r.flushPeerLocked(p)
	p.egMu.Unlock()
	return err
}

// flushPeerLocked is flushPeer's body; the caller holds p.egMu.
func (r *Reliable) flushPeerLocked(p *peerState) error {
	if p.egCount == 0 {
		return nil
	}
	payload := p.egBuf
	flags := byte(flagData)
	if p.egCount == 1 {
		payload = payload[4:] // single message: plain frame, no batch framing
	} else {
		flags |= flagBatch
	}
	buf := make([]byte, hdrLen+len(payload))
	buf[0] = flags
	copy(buf[hdrLen:], payload)
	p.egBuf = p.egBuf[:0]
	p.egCount = 0

	p.sendMu.Lock()
	seq := p.nextSeq
	p.nextSeq++
	binary.LittleEndian.PutUint64(buf[1:], seq)
	p.recvMu.Lock()
	ack := p.expected - 1 // piggyback cumulative ack
	p.ackOwed = 0         // the data frame satisfies any delayed ack
	p.recvMu.Unlock()
	binary.LittleEndian.PutUint64(buf[9:], ack)
	p.unacked[seq] = &unackedFrame{buf: buf, sent: time.Now()}
	p.sendMu.Unlock()

	r.dataFrames.Add(1)
	err := r.ep.Send(p.id, buf)
	if err != nil {
		r.sendErrs.Add(1)
	}
	return err
}

func (r *Reliable) sendAck(to wire.NodeID, ack uint64, delayed bool) {
	buf := make([]byte, hdrLen)
	if delayed {
		buf[0] = flagDelayedAck
	}
	binary.LittleEndian.PutUint64(buf[9:], ack)
	r.acksSent.Add(1)
	if err := r.ep.Send(to, buf); err != nil {
		r.sendErrs.Add(1)
	}
}

// processAck handles one inbound cumulative ack: it releases covered frames,
// feeds the RTT estimator (Karn: only never-retransmitted frames, and never
// from timer-delayed acks, whose timing measures the peer's ack timer rather
// than the path), and counts duplicate pure acks, fast-retransmitting the
// first hole at the threshold. It reports whether the ack advanced (freed
// window) so the caller can clock out queued egress.
func (r *Reliable) processAck(p *peerState, ack uint64, pureAck, delayed bool) bool {
	now := time.Now()
	advanced := false
	var fastRetx []byte
	p.sendMu.Lock()
	switch {
	case ack > p.cumAck:
		advanced = true
		var sample time.Duration
		var sampleSeq uint64
		for s, uf := range p.unacked {
			if s > ack {
				continue
			}
			if !uf.retx && s > sampleSeq {
				sampleSeq = s
				sample = now.Sub(uf.sent)
			}
			delete(p.unacked, s)
		}
		p.cumAck = ack
		p.dupAcks = 0
		if sampleSeq != 0 && !delayed {
			p.est.Observe(sample)
		}
	case ack == p.cumAck && pureAck:
		// A duplicate ack means later frames arrived while ack+1 is
		// missing; after dupAckThreshold of them, resend it right away —
		// but only once per hole (à la TCP): every frame queued behind
		// the hole produces another duplicate ack, and re-firing on each
		// would amplify one loss into a burst of identical copies. If
		// the retransmission is lost too, the RTO timer recovers.
		if uf, ok := p.unacked[ack+1]; ok && ack+1 > p.fastRetx {
			p.dupAcks++
			if p.dupAcks >= dupAckThreshold {
				p.dupAcks = 0
				p.fastRetx = ack + 1
				uf.retx = true
				uf.sent = now
				fastRetx = uf.buf
			}
		}
	}
	p.sendMu.Unlock()
	if fastRetx != nil {
		r.fastRetransmits.Add(1)
		if err := r.ep.Send(p.id, fastRetx); err != nil {
			r.sendErrs.Add(1)
		}
	}
	return advanced
}

func (r *Reliable) recvLoop() {
	for {
		f, ok := r.ep.Recv()
		if !ok {
			return
		}
		if len(f.Payload) < hdrLen {
			r.corruptFrames.Add(1)
			continue
		}
		flags := f.Payload[0]
		seq := binary.LittleEndian.Uint64(f.Payload[1:])
		ack := binary.LittleEndian.Uint64(f.Payload[9:])
		p := r.peer(f.From)

		// Process the (cumulative) acknowledgement; an advancing ack opens
		// the window, so clock out anything the sender queued meanwhile.
		if r.processAck(p, ack, flags&flagData == 0, flags&flagDelayedAck != 0) {
			_ = r.flushPeer(p)
		}

		if flags&flagData == 0 {
			continue // pure ack
		}
		payload := f.Payload[hdrLen:]
		batch := flags&flagBatch != 0

		p.recvMu.Lock()
		switch {
		case seq < p.expected:
			// Duplicate of an already-delivered frame: re-ack right away
			// so the sender stops retransmitting.
			cum := p.expected - 1
			p.ackOwed = 0
			p.recvMu.Unlock()
			r.sendAck(f.From, cum, false)
			continue
		case seq == p.expected:
			p.expected++
			ready := []delivery{{payload: payload, batch: batch}}
			for {
				nxt, ok := p.pending[p.expected]
				if !ok {
					break
				}
				delete(p.pending, p.expected)
				p.expected++
				ready = append(ready, delivery{payload: nxt.payload, batch: nxt.batch})
			}
			// Delayed ack (TCP-style): ack every AckEvery-th in-order
			// frame immediately; otherwise the ack rides the flush timer
			// or piggybacks on reverse data. The first frame after an
			// idle gap is acked immediately (quickack): there is no
			// stream to coalesce with, and the prompt ack both trains
			// the sender's RTT estimator and keeps paced low-rate
			// traffic off the timer path entirely.
			now := time.Now()
			quick := now.Sub(p.lastData) > r.cfg.FlushInterval
			p.lastData = now
			p.ackOwed += len(ready)
			counted := p.ackOwed >= r.cfg.AckEvery
			ackNow := counted || quick
			var cum uint64
			if ackNow {
				cum = p.expected - 1
				p.ackOwed = 0
			}
			p.recvMu.Unlock()
			if ackNow {
				if counted {
					r.countedAcks.Add(1)
				}
				r.sendAck(f.From, cum, false)
			}
			for _, d := range ready {
				if !p.deliver.push(d) {
					return // closed
				}
			}
		default:
			// Out of order: buffer (dedup re-buffering is harmless) and
			// re-ack the last in-order frame immediately — the duplicate
			// ack is the sender's fast-retransmit signal and must never
			// wait out the delayed-ack timer.
			if _, dup := p.pending[seq]; !dup {
				p.pending[seq] = pendingFrame{payload: payload, batch: batch}
			}
			cum := p.expected - 1
			p.ackOwed = 0
			p.recvMu.Unlock()
			r.sendAck(f.From, cum, false)
		}
	}
}

// deliverFrame dispatches one in-order frame's messages, then runs the
// delivery tick.
func (r *Reliable) deliverFrame(from wire.NodeID, dec *wire.Decoder, d delivery) {
	if !d.batch {
		r.dispatch(from, dec, d.payload)
	} else {
		it := wire.NewBatchIter(d.payload)
		for {
			raw, err := it.Next()
			if err != nil {
				r.decodeDrops.Add(1)
				break
			}
			if raw == nil {
				break
			}
			r.dispatch(from, dec, raw)
		}
	}
	// Delivery tick: the frame's messages are all dispatched; let engines
	// flush the responses they coalesced across it.
	if f, _ := r.tick.Load().(func()); f != nil {
		f()
	}
}

func (r *Reliable) dispatch(from wire.NodeID, dec *wire.Decoder, raw []byte) {
	m, err := dec.Unmarshal(raw)
	if err != nil {
		r.decodeDrops.Add(1)
		return
	}
	if h, _ := r.handler.Load().(Handler); h != nil {
		h(from, m)
	}
}

// flushLoop is the batching backstop: at most FlushInterval after a message
// was queued (or an in-order frame went unacknowledged) it pushes the egress
// frame or the owed cumulative ack out.
func (r *Reliable) flushLoop() {
	t := time.NewTicker(r.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-r.closed:
			return
		case <-t.C:
		}
		for _, p := range r.snapshotPeers() {
			_ = r.flushPeer(p) // piggybacks any owed ack
			p.recvMu.Lock()
			owed := p.ackOwed
			var cum uint64
			if owed > 0 {
				cum = p.expected - 1
				p.ackOwed = 0
			}
			p.recvMu.Unlock()
			if owed > 0 {
				r.sendAck(p.id, cum, true)
			}
		}
	}
}

func (r *Reliable) retransmitLoop() {
	// Timed-out frames are looked for twice per shortest possible timeout.
	t := time.NewTicker(max(r.cfg.MinRTO/2, 50*time.Microsecond))
	defer t.Stop()
	for {
		select {
		case <-r.closed:
			return
		case now := <-t.C:
			for _, p := range r.snapshotPeers() {
				p.sendMu.Lock()
				rto := p.est.RTO()
				var resend [][]byte
				for _, uf := range p.unacked {
					if now.Sub(uf.sent) >= rto {
						uf.sent = now
						uf.retx = true
						resend = append(resend, uf.buf)
					}
				}
				if len(resend) > 0 {
					// One back-off per scan round, not per frame
					// (RFC 6298 §5.5 applied per flight).
					p.est.Backoff()
				}
				p.sendMu.Unlock()
				for _, buf := range resend {
					r.retransmits.Add(1)
					if err := r.ep.Send(p.id, buf); err != nil {
						r.sendErrs.Add(1)
					}
				}
			}
		}
	}
}

// Close flushes queued egress, then stops background goroutines. Frames
// already on the wire are not recalled; the underlying network stays open.
func (r *Reliable) Close() error {
	r.once.Do(func() {
		r.Flush()
		close(r.closed)
		for _, p := range r.snapshotPeers() {
			p.deliver.close()
		}
	})
	return nil
}
