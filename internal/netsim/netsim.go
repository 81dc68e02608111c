// Package netsim provides an in-process simulated datacenter network.
//
// The paper evaluates Zeus on a six-node cluster with 40 Gbps links and a
// custom reliable messaging library over DPDK. This repository substitutes a
// simulated network: unicast frames between endpoints with configurable
// latency jitter, probabilistic loss and duplication, reordering (emerging
// from latency jitter and duplication), dynamic partitions and crash-stop
// endpoints. The reliable transport (internal/transport) recovers loss and
// duplication exactly like the paper's messaging layer, so protocol-visible
// behaviour (message counts, round trips, fault tolerance) is preserved.
package netsim

import (
	"container/heap"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/retry"
	"zeus/internal/wire"
)

// Config controls the simulated fabric.
type Config struct {
	// Seed decides, with the link and the frame's index on it, whether a
	// frame is lost or duplicated and how long each copy takes: the n-th
	// frame on a link meets the same fate in every run with the same seed,
	// whatever order goroutines send in.
	Seed int64
	// MinLatency/MaxLatency bound the uniformly distributed one-way frame
	// latency. Equal values give a fixed latency; distinct values give
	// jitter, and with it reordering.
	MinLatency time.Duration
	MaxLatency time.Duration
	// LossProb is the probability a frame is silently dropped.
	LossProb float64
	// DupProb is the probability a frame is delivered twice.
	DupProb float64
	// InboxDepth bounds each endpoint's receive queue; frames arriving at
	// a full inbox are dropped (a lossy network may do that too).
	InboxDepth int
}

// DefaultConfig models a healthy intra-rack fabric: 20–80 µs one-way latency
// and no loss. Tests crank LossProb/DupProb up to stress the protocols.
func DefaultConfig() Config {
	return Config{
		Seed:       1,
		MinLatency: 20 * time.Microsecond,
		MaxLatency: 80 * time.Microsecond,
		InboxDepth: 4096,
	}
}

// Frame is one unicast datagram.
type Frame struct {
	From    wire.NodeID
	Payload []byte
}

// Stats aggregates fabric counters.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Lost      uint64
	Duplicate uint64
	Blocked   uint64 // dropped by partition or dead endpoint
	Overflow  uint64 // dropped at a full inbox
	Bytes     uint64 // payload bytes handed to the fabric
}

// Network is the simulated fabric connecting endpoints.
type Network struct {
	cfg Config

	mu        sync.Mutex
	endpoints map[wire.NodeID]*Endpoint
	blocked   map[[2]wire.NodeID]bool
	linkSeq   map[[2]wire.NodeID]uint64 // per-link frame index, the fate's input
	closed    bool
	done      chan struct{}

	// Delivery scheduler: a single goroutine drains a deadline-ordered
	// heap, spin-waiting for sub-millisecond latencies (Go timers are too
	// coarse to model microsecond-scale fabrics).
	schedMu   sync.Mutex
	schedHeap deliveryHeap
	schedWake chan struct{}

	sent      atomic.Uint64
	delivered atomic.Uint64
	lost      atomic.Uint64
	duplicate atomic.Uint64
	blockedCt atomic.Uint64
	overflow  atomic.Uint64
	bytes     atomic.Uint64
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	if cfg.InboxDepth <= 0 {
		cfg.InboxDepth = 4096
	}
	if cfg.MaxLatency < cfg.MinLatency {
		cfg.MaxLatency = cfg.MinLatency
	}
	n := &Network{
		cfg:       cfg,
		endpoints: make(map[wire.NodeID]*Endpoint),
		blocked:   make(map[[2]wire.NodeID]bool),
		linkSeq:   make(map[[2]wire.NodeID]uint64),
		done:      make(chan struct{}),
		schedWake: make(chan struct{}, 1),
	}
	go n.schedulerLoop()
	return n
}

// deliveryHeap orders pending frames by delivery deadline.
type scheduled struct {
	at  time.Time
	dst *Endpoint
	f   Frame
	seq uint64 // tie-break keeps same-deadline frames FIFO
}

type deliveryHeap []scheduled

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h deliveryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x interface{}) { *h = append(*h, x.(scheduled)) }
func (h *deliveryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

var schedSeq atomic.Uint64

// sleepSlack is the calibrated overshoot of a short time.Sleep on this host.
// The delivery scheduler sleeps until sleepSlack before a frame's deadline
// and spin-waits only the remainder, so delivery-time accuracy is preserved
// while the spin window shrinks from a fixed 1.5 ms (a full core burned per
// inter-event gap, skewing RTT samples in multi-node tests) to the tens of
// microseconds the clock actually needs.
var (
	sleepSlackOnce sync.Once
	sleepSlackVal  time.Duration
)

func sleepSlack() time.Duration {
	sleepSlackOnce.Do(func() {
		worst := retry.TimerGranularity()
		worst += worst / 2 // headroom for calibration-time luck
		if worst < 50*time.Microsecond {
			worst = 50 * time.Microsecond
		}
		if worst > 2*time.Millisecond {
			worst = 2 * time.Millisecond // coarse-clock hosts: old behaviour
		}
		sleepSlackVal = worst
	})
	return sleepSlackVal
}

// schedulerLoop delivers frames at their deadlines. Waits longer than the
// calibrated sleep overshoot use a real timer; only the final calibrated
// slack is spin-waited with Gosched so microsecond fabric latencies are
// honoured without pinning a core.
func (n *Network) schedulerLoop() {
	slack := sleepSlack()
	for {
		n.schedMu.Lock()
		if n.schedHeap.Len() == 0 {
			n.schedMu.Unlock()
			select {
			case <-n.schedWake:
				continue
			case <-n.done:
				return
			}
		}
		next := n.schedHeap[0].at
		wait := time.Until(next)
		if wait > slack {
			n.schedMu.Unlock()
			select {
			case <-time.After(wait - slack):
			case <-n.schedWake:
			case <-n.done:
				return
			}
			continue
		}
		if wait > 0 {
			n.schedMu.Unlock()
			deadline := next
		spin:
			for time.Now().Before(deadline) {
				select {
				case <-n.schedWake:
					// A newly queued frame may beat the current head;
					// re-evaluate instead of spinning past it.
					break spin
				case <-n.done:
					return
				default:
					runtime.Gosched()
				}
			}
			continue
		}
		it := heap.Pop(&n.schedHeap).(scheduled)
		n.schedMu.Unlock()
		n.deliverNow(it.dst, it.f)
	}
}

// deliverNow counts a frame delivered before the receiver can hold it, and
// takes the count back if the frame is dropped instead: a receiver that got
// the n-th frame reads Delivered ≥ n.
func (n *Network) deliverNow(dst *Endpoint, f Frame) {
	if dst.down.Load() {
		n.blockedCt.Add(1)
		return
	}
	n.delivered.Add(1)
	select {
	case <-n.done:
		n.delivered.Add(^uint64(0))
		n.blockedCt.Add(1)
	case dst.inbox <- f:
	default:
		n.delivered.Add(^uint64(0))
		n.overflow.Add(1)
	}
}

// ErrClosed is returned by operations on a closed network or endpoint.
var ErrClosed = errors.New("netsim: closed")

// Endpoint is one attachment point (a NIC) on the fabric.
type Endpoint struct {
	id    wire.NodeID
	net   *Network
	inbox chan Frame
	down  atomic.Bool
}

// Endpoint registers (or returns) the endpoint for node id.
func (n *Network) Endpoint(id wire.NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[id]; ok {
		return ep
	}
	ep := &Endpoint{id: id, net: n, inbox: make(chan Frame, n.cfg.InboxDepth)}
	n.endpoints[id] = ep
	return ep
}

// Partition blocks traffic between a and b in both directions.
func (n *Network) Partition(a, b wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]wire.NodeID{a, b}] = true
	n.blocked[[2]wire.NodeID{b, a}] = true
}

// Heal removes a partition between a and b.
func (n *Network) Heal(a, b wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]wire.NodeID{a, b})
	delete(n.blocked, [2]wire.NodeID{b, a})
}

// SetDown marks an endpoint crashed (true) or revived (false). A down
// endpoint neither sends nor receives; in-flight frames to it are dropped.
func (n *Network) SetDown(id wire.NodeID, down bool) {
	if ep := n.Endpoint(id); ep != nil {
		ep.down.Store(down)
	}
}

// Stats returns a snapshot of fabric counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:      n.sent.Load(),
		Delivered: n.delivered.Load(),
		Lost:      n.lost.Load(),
		Duplicate: n.duplicate.Load(),
		Blocked:   n.blockedCt.Load(),
		Overflow:  n.overflow.Load(),
		Bytes:     n.bytes.Load(),
	}
}

// Close tears the fabric down; receivers unblock with ok=false.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.down.Store(true)
	}
	close(n.done)
}

// ID returns the endpoint's node id.
func (ep *Endpoint) ID() wire.NodeID { return ep.id }

// Send transmits one frame to dst. The payload is not retained; delivery is
// asynchronous and unreliable per the network configuration.
func (ep *Endpoint) Send(dst wire.NodeID, payload []byte) error {
	n := ep.net
	if ep.down.Load() {
		return ErrClosed
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	dstEp, ok := n.endpoints[dst]
	blocked := n.blocked[[2]wire.NodeID{ep.id, dst}]
	var lost, dup bool
	var lat, lat2 time.Duration
	if ok && !blocked {
		link := [2]wire.NodeID{ep.id, dst}
		idx := n.linkSeq[link]
		n.linkSeq[link] = idx + 1
		lost, dup, lat, lat2 = n.cfg.fate(ep.id, dst, idx)
	}
	n.mu.Unlock()

	n.sent.Add(1)
	n.bytes.Add(uint64(len(payload)))
	if !ok || blocked {
		n.blockedCt.Add(1)
		return nil
	}
	if lost {
		n.lost.Add(1)
		return nil
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	f := Frame{From: ep.id, Payload: buf}
	n.deliverAfter(dstEp, f, lat)
	if dup {
		n.duplicate.Add(1)
		n.deliverAfter(dstEp, f, lat2)
	}
	return nil
}

// fate is what the network does with the idx-th frame on the link from → to:
// whether it is lost, whether it is duplicated, and the latencies of its copy
// and of the duplicate, each uniform in [MinLatency, MaxLatency). It is a pure
// function of the configuration, the link and the index.
func (c Config) fate(from, to wire.NodeID, idx uint64) (lost, dup bool, lat, lat2 time.Duration) {
	spread := float64(c.MaxLatency - c.MinLatency)
	lost = linkHash(c.Seed, from, to, idx, 0) < c.LossProb
	dup = linkHash(c.Seed, from, to, idx, 1) < c.DupProb
	lat = c.MinLatency + time.Duration(linkHash(c.Seed, from, to, idx, 2)*spread)
	lat2 = c.MinLatency + time.Duration(linkHash(c.Seed, from, to, idx, 3)*spread)
	return lost, dup, lat, lat2
}

// linkHash maps (seed, link, frame index, decision kind) to [0,1) via a
// splitmix64 finalizer. The index is shifted left by two, so kind is one of
// the four decisions 0–3 that fate takes.
func linkHash(seed int64, from, to wire.NodeID, idx uint64, kind uint64) float64 {
	x := uint64(seed) ^ uint64(from)<<40 ^ uint64(to)<<48 ^ idx<<2 ^ kind
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

func (n *Network) deliverAfter(dst *Endpoint, f Frame, lat time.Duration) {
	if lat <= 0 {
		n.deliverNow(dst, f)
		return
	}
	n.schedMu.Lock()
	heap.Push(&n.schedHeap, scheduled{
		at: time.Now().Add(lat), dst: dst, f: f, seq: schedSeq.Add(1),
	})
	n.schedMu.Unlock()
	select {
	case n.schedWake <- struct{}{}:
	default:
	}
}

// Recv blocks for the next frame; ok=false means the network closed.
func (ep *Endpoint) Recv() (Frame, bool) {
	select {
	case f := <-ep.inbox:
		return f, true
	case <-ep.net.done:
		return Frame{}, false
	}
}

// TryRecv returns the next frame without blocking.
func (ep *Endpoint) TryRecv() (Frame, bool) {
	select {
	case f := <-ep.inbox:
		return f, true
	default:
		return Frame{}, false
	}
}
