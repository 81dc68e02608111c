package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/wire"
)

// TCP implements Transport over real sockets for multi-process deployments
// (cmd/zeusd). TCP already provides reliable FIFO delivery per connection, so
// no extra sequencing is needed. Frames are length-prefixed wire messages
// preceded by a one-time handshake carrying the sender's node id; SendBatch
// and Multicast marshal once and issue a single write per connection, and a
// connection's read loop takes everything the socket holds in one read,
// dispatches it, and runs the delivery tick once (see SetTickHandler).
type TCP struct {
	self wire.NodeID
	ln   net.Listener
	// dial opens an outbound connection; tests substitute it.
	dial func(addr string) (net.Conn, error)

	mu    sync.Mutex
	addrs map[wire.NodeID]string // guarded by mu; extended via SetAddr
	conns map[wire.NodeID]*tcpConn
	// open holds every live socket, in conns or not (the second connection
	// of a simultaneous dial is nobody's route): Close closes them all, so
	// no reader goroutine — and through its handler, no node — outlives
	// the transport.
	open    map[net.Conn]struct{}
	handler atomic.Value // Handler
	tick    atomic.Value // func(), invoked once per socket drain
	closed  chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	msgsSent    atomic.Uint64
	bytesSent   atomic.Uint64
	writes      atomic.Uint64
	reads       atomic.Uint64
	decodeDrops atomic.Uint64
}

// readBufSize is each connection's read buffer. It bounds how much one read
// syscall can take off the socket, hence how many frames share a delivery
// tick: 8 KiB is ~80 R-ACKs or ~40 two-update R-INVs. A cluster keeps about 25
// read loops alive, so the constant is paid 25 times over in live heap:
// 8 KiB left the benchmark's heap_mb on smallbank_tcp where it was, 64 KiB
// added 1.4 MB (+5.5 %, over its 5 % bound) for no more batching — the commit
// coalescer flushes at 32 messages, well inside 8 KiB.
const readBufSize = 8 << 10

// tcpConn serializes writes per connection so Send never holds the
// transport-wide lock across a syscall.
type tcpConn struct {
	c   net.Conn
	wmu sync.Mutex
}

// NewTCP starts a listener on listenAddr and returns a transport that can
// dial the peers in addrs (node id → host:port). The address book is copied;
// grow it later with SetAddr as the cluster's replicated address book
// delivers more endpoints.
func NewTCP(self wire.NodeID, listenAddr string, addrs map[wire.NodeID]string) (*TCP, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	book := make(map[wire.NodeID]string, len(addrs))
	for id, a := range addrs {
		book[id] = a
	}
	t := &TCP{
		self:   self,
		addrs:  book,
		ln:     ln,
		dial:   func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) },
		conns:  make(map[wire.NodeID]*tcpConn),
		open:   make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// SetAddr records (or replaces) a peer's dial address. An existing
// connection to the peer stays up; the address applies on the next dial.
func (t *TCP) SetAddr(id wire.NodeID, addr string) {
	t.mu.Lock()
	t.addrs[id] = addr
	t.mu.Unlock()
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Self returns the local node id.
func (t *TCP) Self() wire.NodeID { return t.self }

// SetHandler installs the inbound handler.
func (t *TCP) SetHandler(h Handler) { t.handler.Store(h) }

// SetTickHandler installs the delivery-tick hook. A TCP stream has no batch
// boundaries (a SendBatch is k concatenated frames), so the boundary is the
// socket drain: a read loop dispatches every frame its buffered read brought
// in and runs the hook once, just before it would go back to the socket for
// the next frame. A k-frame batch that arrived together is therefore k
// dispatches and one tick — its k responses leave as one write, as they do on
// the hub and the reliable fabric — while a lone message is ticked at once,
// never held for company.
func (t *TCP) SetTickHandler(f func()) { t.tick.Store(f) }

// MessagesSent reports wire.Msg values handed to a socket write (once per
// destination for a Multicast); divided by Writes it gives the average batch.
func (t *TCP) MessagesSent() uint64 { return t.msgsSent.Load() }

// BytesSent reports the framed bytes written.
func (t *TCP) BytesSent() uint64 { return t.bytesSent.Load() }

// Writes reports write calls issued on sockets: one per Send, per SendBatch
// and per Multicast destination.
func (t *TCP) Writes() uint64 { return t.writes.Load() }

// Reads reports read calls issued on sockets by the read loops.
func (t *TCP) Reads() uint64 { return t.reads.Load() }

// DecodeDrops reports inbound frames dropped because they failed to
// unmarshal; non-zero means peers are sending corrupt or incompatible data.
func (t *TCP) DecodeDrops() uint64 { return t.decodeDrops.Load() }

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serveConn(c)
		}()
	}
}

// isClosed reports whether Close has begun. Under t.mu it orders a new
// socket against Close: either Close sees the socket in open, or the caller
// sees the transport closed.
func (t *TCP) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// hangUp closes a socket whose read loop ended and, if it is still the
// route to peer, drops the route so a later Send redials instead of writing
// into a dead socket.
func (t *TCP) hangUp(peer wire.NodeID, c net.Conn) {
	t.mu.Lock()
	delete(t.open, c)
	if cur, ok := t.conns[peer]; ok && cur.c == c {
		delete(t.conns, peer)
	}
	t.mu.Unlock()
	c.Close()
}

func (t *TCP) serveConn(c net.Conn) {
	var peer wire.NodeID // unknown until the handshake; hangUp only drops a route that is c
	defer func() { t.hangUp(peer, c) }()
	t.mu.Lock()
	closed := t.isClosed()
	if !closed {
		t.open[c] = struct{}{}
	}
	t.mu.Unlock()
	if closed {
		return
	}
	// Handshake: peer sends its node id.
	var hdr [2]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return
	}
	peer = wire.NodeID(binary.LittleEndian.Uint16(hdr[:]))
	// Register the inbound connection for outbound use (first one wins): a
	// peer with no listed address — a zeusctl client, or a joiner the
	// address book has not delivered yet — becomes reachable the moment it
	// dials in, so replies and pushes need no reverse dial.
	t.mu.Lock()
	if _, registered := t.conns[peer]; !registered {
		t.conns[peer] = &tcpConn{c: c}
	}
	t.mu.Unlock()
	t.readLoop(peer, c)
}

// socketReads counts the read calls a connection's buffered reader issues.
type socketReads struct {
	c net.Conn
	n *atomic.Uint64
}

func (r socketReads) Read(p []byte) (int, error) {
	r.n.Add(1)
	return r.c.Read(p)
}

// frameBuffered reports whether br already holds a whole frame, header and
// body: reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4) // cannot fail: the bytes are there
	return uint64(br.Buffered()-4) >= uint64(binary.LittleEndian.Uint32(hdr))
}

// readLoop delivers one connection's frames. Reads go through a small
// buffer (readBufSize), so the frames of one SendBatch — or of several that
// queued up in the socket while the handler ran — cost one read syscall; a
// frame larger than the buffer is still read straight into buf. The delivery
// tick runs when messages were dispatched and the next frame is not already
// in the buffer, i.e. before the loop may block on the socket.
func (t *TCP) readLoop(peer wire.NodeID, c net.Conn) {
	br := bufio.NewReaderSize(socketReads{c, &t.reads}, readBufSize)
	var dec wire.Decoder // this stream's record chunks; the loop is its only user
	var lenBuf [4]byte
	var buf []byte // grows to the high-water frame size, then zero-alloc
	unticked := false
	for {
		if unticked && !frameBuffered(br) {
			unticked = false
			if tf, _ := t.tick.Load().(func()); tf != nil {
				tf()
			}
		}
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > wire.MaxMsg {
			return
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		b := buf[:n]
		if _, err := io.ReadFull(br, b); err != nil {
			return
		}
		m, err := dec.Unmarshal(b)
		if err != nil {
			t.decodeDrops.Add(1)
			continue
		}
		if h, _ := t.handler.Load().(Handler); h != nil {
			h(peer, m)
		}
		unticked = true
	}
}

// conn returns the route to a peer, dialing on first use. The dial and the
// handshake run outside t.mu — a peer that black-holes SYNs holds up the
// Sends addressed to it for the dial timeout, and nothing else on the node.
func (t *TCP) conn(to wire.NodeID) (*tcpConn, error) {
	t.mu.Lock()
	tc, ok := t.conns[to]
	addr, known := t.addrs[to]
	t.mu.Unlock()
	switch {
	case ok:
		return tc, nil
	case t.isClosed():
		return nil, ErrClosed
	case !known:
		return nil, fmt.Errorf("transport: no address for node %d", to)
	}
	c, err := t.dial(addr)
	if err != nil {
		return nil, err
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(t.self))
	if _, err := c.Write(hdr[:]); err != nil {
		c.Close()
		return nil, err
	}
	t.mu.Lock()
	if t.isClosed() { // a Send that raced Close must not leave a socket Close never sees
		t.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	// First registration wins: while this dial was out, a concurrent Send's
	// dial or the peer's own inbound connection may have become the route.
	// The socket stays open and read either way — the peer has our handshake
	// and may already have made it its route to us, so closing it could drop
	// what the peer writes meanwhile.
	tc, ok = t.conns[to]
	if !ok {
		tc = &tcpConn{c: c}
		t.conns[to] = tc
	}
	t.open[c] = struct{}{}
	t.wg.Add(1)
	t.mu.Unlock()
	// Also read from outbound connections so a pair of nodes can share
	// one connection in each direction without confusion.
	go func() {
		defer t.wg.Done()
		t.readLoop(to, c)
		t.hangUp(to, c)
	}()
	return tc, nil
}

// write sends msgs messages in one pre-framed buffer on the peer's
// connection, dropping the connection on error so a later Send redials.
func (t *TCP) write(to wire.NodeID, tc *tcpConn, buf []byte, msgs int) error {
	t.msgsSent.Add(uint64(msgs))
	t.bytesSent.Add(uint64(len(buf)))
	t.writes.Add(1)
	tc.wmu.Lock()
	_, err := tc.c.Write(buf)
	tc.wmu.Unlock()
	if err != nil {
		t.mu.Lock()
		if cur, ok := t.conns[to]; ok && cur == tc {
			delete(t.conns, to)
		}
		t.mu.Unlock()
		tc.c.Close()
	}
	return err
}

// Send transmits m to the peer, dialing on first use. Marshalling happens
// outside any lock, into a pooled buffer.
func (t *TCP) Send(to wire.NodeID, m wire.Msg) error {
	if t.isClosed() {
		return ErrClosed
	}
	tc, err := t.conn(to)
	if err != nil {
		return err
	}
	buf := wire.GetBuf()
	buf.B = wire.AppendMessage(buf.B, m) // [len:u32][msg]: the TCP framing
	err = t.write(to, tc, buf.B, 1)
	wire.PutBuf(buf)
	return err
}

// SendBatch transmits msgs back-to-back in a single write (one syscall); the
// on-wire framing is unchanged, so mixed-version peers interoperate.
func (t *TCP) SendBatch(to wire.NodeID, msgs []wire.Msg) error {
	if t.isClosed() {
		return ErrClosed
	}
	if len(msgs) == 0 {
		return nil
	}
	tc, err := t.conn(to)
	if err != nil {
		return err
	}
	buf := wire.GetBuf()
	for _, m := range msgs {
		buf.B = wire.AppendMessage(buf.B, m)
	}
	err = t.write(to, tc, buf.B, len(msgs))
	wire.PutBuf(buf)
	return err
}

// Multicast marshals m once and writes it to every destination.
func (t *TCP) Multicast(dsts []wire.NodeID, m wire.Msg) error {
	if t.isClosed() {
		return ErrClosed
	}
	if len(dsts) == 0 {
		return nil
	}
	buf := wire.GetBuf()
	buf.B = wire.AppendMessage(buf.B, m)
	var err error
	for _, to := range dsts {
		tc, e := t.conn(to)
		if e == nil {
			e = t.write(to, tc, buf.B, 1)
		}
		if e != nil && err == nil {
			err = e
		}
	}
	wire.PutBuf(buf)
	return err
}

// Close shuts the listener and all connections down.
func (t *TCP) Close() error {
	t.once.Do(func() {
		close(t.closed)
		t.ln.Close()
		t.mu.Lock()
		for c := range t.open {
			c.Close()
		}
		t.conns = make(map[wire.NodeID]*tcpConn)
		t.mu.Unlock()
	})
	return nil
}

var _ Transport = (*TCP)(nil)
