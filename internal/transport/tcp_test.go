package transport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/wire"
)

// tcpNode starts a TCP transport on a loopback port, closed with the test.
func tcpNode(t *testing.T, id wire.NodeID) *TCP {
	t.Helper()
	tr, err := NewTCP(id, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// tickLog records, for every delivery tick, how many messages the handler had
// seen by then.
type tickLog struct {
	msgs  atomic.Int32
	mu    sync.Mutex
	ticks []int32
}

func (l *tickLog) install(t *TCP) {
	t.SetHandler(func(wire.NodeID, wire.Msg) { l.msgs.Add(1) })
	t.SetTickHandler(func() {
		l.mu.Lock()
		l.ticks = append(l.ticks, l.msgs.Load())
		l.mu.Unlock()
	})
}

func (l *tickLog) seen() []int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int32(nil), l.ticks...)
}

// waitTickAt waits for a tick that ran with exactly msgs messages handled.
func (l *tickLog) waitTickAt(t *testing.T, msgs int32) {
	t.Helper()
	waitFor(t, "the delivery tick", func() bool {
		ticks := l.seen()
		return len(ticks) > 0 && ticks[len(ticks)-1] == msgs
	})
}

// TestTCPDeliveryTickFiresPerDrain restates TestDeliveryTickFiresPerFrame for
// a byte stream: the frames of one SendBatch arrive together, so they are
// handled together and ticked once (a tick per message is what is ruled
// out); the tick comes after the last of them; and the one write, its
// messages and its bytes are counted.
func TestTCPDeliveryTickFiresPerDrain(t *testing.T) {
	a, b := tcpNode(t, 0), tcpNode(t, 1)
	a.SetAddr(1, b.Addr())
	var log tickLog
	log.install(b)

	const n = 32
	batch := make([]wire.Msg, n)
	frame := 0
	for i := range batch {
		batch[i] = ping(uint64(i))
		frame += len(wire.AppendMessage(nil, batch[i]))
	}
	if err := a.SendBatch(1, batch); err != nil {
		t.Fatal(err)
	}
	log.waitTickAt(t, n)
	if ticks := log.seen(); len(ticks) >= n {
		t.Errorf("%d ticks for a %d-message batch (messages handled at each: %v)", len(ticks), n, ticks)
	}
	if a.MessagesSent() != n || a.Writes() != 1 || a.BytesSent() != uint64(frame) {
		t.Errorf("sender counted %d messages, %d writes, %d bytes; want %d, 1, %d",
			a.MessagesSent(), a.Writes(), a.BytesSent(), n, frame)
	}
	if r := b.Reads(); r < 1 || r >= n {
		t.Errorf("receiver issued %d reads for a %d-message batch", r, n)
	}
}

// TestTCPLoneMessageTicksAtOnce: the tick waits for the buffer to run dry,
// never for more data — a single message on an otherwise silent connection is
// ticked right behind its dispatch.
func TestTCPLoneMessageTicksAtOnce(t *testing.T) {
	a, b := tcpNode(t, 0), tcpNode(t, 1)
	a.SetAddr(1, b.Addr())
	var log tickLog
	log.install(b)
	if err := a.Send(1, ping(0)); err != nil {
		t.Fatal(err)
	}
	log.waitTickAt(t, 1)
	if ticks := log.seen(); len(ticks) != 1 {
		t.Errorf("ticks for one message: %v", ticks)
	}
}

// TestTCPSplitFrame: a frame that arrives in two pieces is delivered once,
// when it is whole, and ticked after; the complete frame ahead of it is not
// held back for it — with only half a frame left in the buffer the loop
// ticks before it blocks.
func TestTCPSplitFrame(t *testing.T) {
	b := tcpNode(t, 1)
	var log tickLog
	log.install(b)
	raw, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	first := wire.AppendMessage(nil, ping(0))
	second := wire.AppendMessage(nil, ping(1))
	cut := len(second) / 2 // past the length prefix, inside the body

	// Handshake (node 0), a whole frame and the head of the next.
	if _, err := raw.Write(append(append([]byte{0, 0}, first...), second[:cut]...)); err != nil {
		t.Fatal(err)
	}
	log.waitTickAt(t, 1)
	time.Sleep(20 * time.Millisecond) // half a frame must stay undelivered, however long it sits
	if got := log.msgs.Load(); got != 1 {
		t.Fatalf("%d messages handled with one and a half frames written", got)
	}
	if _, err := raw.Write(second[cut:]); err != nil {
		t.Fatal(err)
	}
	log.waitTickAt(t, 2)
	if ticks := log.seen(); len(ticks) != 2 {
		t.Errorf("messages handled at each tick: %v, want [1 2]", ticks)
	}
}

// TestTCPBlockedDialHoldsUpNothingElse: a peer that never answers the dial
// (a black-holed SYN) holds up the Send addressed to it and nothing else —
// Sends to other peers go through, and inbound connections still register as
// routes. With the dial under the transport-wide lock both stalled for the
// dial timeout.
func TestTCPBlockedDialHoldsUpNothingElse(t *testing.T) {
	a, b, c := tcpNode(t, 0), tcpNode(t, 1), tcpNode(t, 3)
	const blackHole = "black-hole"
	a.SetAddr(1, b.Addr())
	a.SetAddr(2, blackHole)
	c.SetAddr(0, a.Addr())
	ca, cb, cc := newCollect(), newCollect(), newCollect()
	a.SetHandler(ca.handler)
	b.SetHandler(cb.handler)
	c.SetHandler(cc.handler)

	dialing, release := make(chan struct{}), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // ahead of the transports' Close, which needs the lock a stuck dial would hold
	dial := a.dial
	a.dial = func(addr string) (net.Conn, error) {
		if addr != blackHole {
			return dial(addr)
		}
		close(dialing)
		<-release
		return nil, errors.New("dial timed out")
	}
	stuck := make(chan error, 1)
	go func() { stuck <- a.Send(2, ping(0)) }()
	<-dialing

	sent := make(chan error, 1)
	go func() { sent <- a.Send(1, ping(1)) }()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send to node 1 waits for the dial to node 2")
	}
	cb.waitN(t, 1, 5*time.Second)

	// Node 3 dials in; a has no address for it, so a reply can only leave
	// over the inbound connection, registered as the route.
	if err := c.Send(0, ping(2)); err != nil {
		t.Fatal(err)
	}
	ca.waitN(t, 1, 5*time.Second)
	waitFor(t, "the inbound connection to register", func() bool { return a.Send(3, ping(3)) == nil })
	cc.waitN(t, 1, 5*time.Second)

	unblock()
	if err := <-stuck; err == nil {
		t.Error("Send to the black-holed peer reported success")
	}
}

// TestTCPConcurrentFirstSends: Sends that find no route dial concurrently
// (the dial is outside the lock); one socket becomes the route, the others
// stay open and read, and every sender's messages arrive once and in order.
func TestTCPConcurrentFirstSends(t *testing.T) {
	a, b := tcpNode(t, 0), tcpNode(t, 1)
	a.SetAddr(1, b.Addr())
	b.SetAddr(0, a.Addr())
	ca, cb := newCollect(), newCollect()
	a.SetHandler(ca.handler)
	b.SetHandler(cb.handler)

	const senders, per = 8, 50
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := uint64(0); i < per; i++ {
				m := &wire.CommitVal{Tx: wire.TxID{Pipe: wire.PipeID{Worker: wire.Worker(g)}, Local: i}}
				if err := a.Send(1, m); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	cb.waitN(t, senders*per, 5*time.Second)
	// Whichever socket b took as its route to a, a reads it.
	if err := b.Send(0, ping(0)); err != nil {
		t.Fatal(err)
	}
	ca.waitN(t, 1, 5*time.Second)

	cb.mu.Lock()
	defer cb.mu.Unlock()
	if len(cb.msgs) != senders*per {
		t.Fatalf("%d messages delivered, want %d", len(cb.msgs), senders*per)
	}
	var next [senders]uint64
	for _, m := range cb.msgs {
		v := m.(*wire.CommitVal)
		if g := v.Tx.Pipe.Worker; v.Tx.Local != next[g] {
			t.Fatalf("sender %d: message %d arrived where %d was due", g, v.Tx.Local, next[g])
		}
		next[v.Tx.Pipe.Worker]++
	}
}
