package transport

import (
	"fmt"
	"sync"
	"time"

	"zeus/internal/netsim"
	"zeus/internal/wire"
)

// Fabric is the network a deployment stands on. It hands out one endpoint per
// node id, cuts a node off and lets it back (crash-stop fault injection), and
// counts what it carried. There are three: the Hub (perfect, in memory), a
// SimFabric (the reliable layer over a lossy simulated network) and a
// TCPFabric (loopback sockets). What an endpoint is, what SetDown does to it
// and what a restarted node gets back differ per fabric; the cluster
// package's doc has the table.
type Fabric interface {
	// Node returns id's endpoint, creating it if id has none. An endpoint
	// belongs to the fabric and outlives whatever node is built on it.
	Node(id wire.NodeID) Transport
	// SetDown(id, true) crash-stops id's endpoint: nothing it sends arrives
	// and nothing reaches it. SetDown(id, false) readmits it.
	SetDown(id wire.NodeID, down bool)
	// Messages and Bytes count the traffic carried so far, fabric-wide.
	Messages() uint64
	Bytes() uint64
	// Close releases every endpoint.
	Close()
}

// SimFabric is the lossy fabric: one netsim.Network and, per node id, one
// Reliable over that id's netsim endpoint. The Reliable is memoized like the
// endpoint under it. A second one over the same endpoint would be a second
// receiver on one inbox and a second sequence space towards every peer, so a
// restarted node gets back the Reliable its previous incarnation used, with
// the peers' sequence numbers still in step.
type SimFabric struct {
	net *netsim.Network
	cfg ReliableConfig

	mu    sync.Mutex
	nodes map[wire.NodeID]*Reliable
}

// NewSimFabric builds a simulated network and derives the reliable layer's
// timeouts from its latency scale.
func NewSimFabric(net netsim.Config) *SimFabric {
	cfg := ReliableConfig{
		// The initial timeout scales with the fabric's latency, so that a
		// slow-motion fabric does not retransmit spuriously before the
		// adaptive estimator has RTT samples.
		RTO: 4*net.MaxLatency + 2*time.Millisecond,
		// Keeps the adapted timeout above one round trip (NewReliable adds
		// its own floor, 2×FlushInterval).
		MinRTO: 2 * net.MaxLatency,
	}
	return &SimFabric{net: netsim.New(net), cfg: cfg, nodes: make(map[wire.NodeID]*Reliable)}
}

// Node returns id's reliable transport, creating it on first use.
func (f *SimFabric) Node(id wire.NodeID) Transport {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.nodes[id]
	if !ok {
		r = NewReliable(f.net.Endpoint(id), f.cfg)
		f.nodes[id] = r
	}
	return r
}

// SetDown drops every frame to and from id's netsim endpoint, or stops
// dropping them. The Reliable above it keeps its state either way.
func (f *SimFabric) SetDown(id wire.NodeID, down bool) { f.net.SetDown(id, down) }

// Messages returns the frames the simulated network was handed: a frame
// batches several messages, and retransmissions and acks count.
func (f *SimFabric) Messages() uint64 { return f.net.Stats().Sent }

// Bytes returns the bytes of those frames, headers included.
func (f *SimFabric) Bytes() uint64 { return f.net.Stats().Bytes }

// Close closes every Reliable and the network under them.
func (f *SimFabric) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.nodes {
		_ = r.Close()
	}
	f.net.Close()
}

// TCPFabric runs every endpoint over a loopback socket: transport.TCP with a
// ":0" listener each and, in place of the replicated address book a zeusd
// deployment uses, a book kept here. A socket cannot be cut and mended, so
// crash-stopping an endpoint closes it — listener and connections — and the
// node id's next endpoint is a new listener on a new port, whose address
// every live endpoint is told.
type TCPFabric struct {
	mu   sync.Mutex
	live map[wire.NodeID]*TCP
	all  []*TCP // closed ones too: their counters stay in the totals
}

// NewTCPFabric returns a fabric with no endpoints.
func NewTCPFabric() *TCPFabric {
	return &TCPFabric{live: make(map[wire.NodeID]*TCP)}
}

// Node returns id's listening endpoint. If id has none — never started, or
// crash-stopped since — it starts one: the new transport is given every live
// peer's address and every live peer the new one's. An endpoint is created
// before the node on it carries traffic, so the hand-over races nothing.
func (f *TCPFabric) Node(id wire.NodeID) Transport {
	f.mu.Lock()
	defer f.mu.Unlock()
	if tr, ok := f.live[id]; ok {
		return tr
	}
	book := make(map[wire.NodeID]string, len(f.live))
	for peer, tr := range f.live {
		book[peer] = tr.Addr()
	}
	tr, err := NewTCP(id, "127.0.0.1:0", book)
	if err != nil {
		panic(fmt.Sprintf("transport: loopback endpoint for node %d: %v", id, err))
	}
	for _, peer := range f.live {
		peer.SetAddr(id, tr.Addr())
	}
	f.live[id] = tr
	f.all = append(f.all, tr)
	return tr
}

// SetDown(id, true) closes id's endpoint for good; SetDown(id, false) has
// nothing to do, the next Node(id) listens afresh.
func (f *TCPFabric) SetDown(id wire.NodeID, down bool) {
	if !down {
		return
	}
	f.mu.Lock()
	tr := f.live[id]
	delete(f.live, id)
	f.mu.Unlock()
	if tr != nil {
		_ = tr.Close()
	}
}

// Messages returns the messages handed to socket writes by every endpoint
// the fabric ever started.
func (f *TCPFabric) Messages() uint64 { return f.sum((*TCP).MessagesSent) }

// Bytes returns the framed bytes of those writes.
func (f *TCPFabric) Bytes() uint64 { return f.sum((*TCP).BytesSent) }

func (f *TCPFabric) sum(counter func(*TCP) uint64) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n uint64
	for _, tr := range f.all {
		n += counter(tr)
	}
	return n
}

// Close closes every endpoint (closing one twice is harmless).
func (f *TCPFabric) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, tr := range f.all {
		_ = tr.Close()
	}
}
