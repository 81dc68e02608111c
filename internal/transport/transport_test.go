package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/netsim"
	"zeus/internal/wire"
	"zeus/internal/wire/wiretest"
)

// collect gathers inbound messages with ordering per sender.
type collect struct {
	mu   sync.Mutex
	msgs []wire.Msg
	from []wire.NodeID
	cond *sync.Cond
}

func newCollect() *collect {
	c := &collect{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collect) handler(from wire.NodeID, m wire.Msg) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.from = append(c.from, from)
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *collect) waitN(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		c.mu.Lock()
		for len(c.msgs) < n {
			c.cond.Wait()
		}
		c.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		c.mu.Lock()
		got := len(c.msgs)
		c.mu.Unlock()
		t.Fatalf("timed out: got %d/%d messages", got, n)
	}
}

func ping(i uint64) wire.Msg { return &wire.CommitVal{Tx: wire.TxID{Local: i}} }

func pingSeq(m wire.Msg) uint64 { return m.(*wire.CommitVal).Tx.Local }

func TestHubBasicDelivery(t *testing.T) {
	h := NewHub()
	a, b := h.Node(0), h.Node(1)
	defer a.Close()
	defer b.Close()
	c := newCollect()
	b.SetHandler(c.handler)
	for i := uint64(0); i < 10; i++ {
		if err := a.Send(1, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.waitN(t, 10, time.Second)
	for i, m := range c.msgs {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, m)
		}
	}
	if h.Messages() != 10 || h.Bytes() == 0 {
		t.Fatalf("stats: %d msgs %d bytes", h.Messages(), h.Bytes())
	}
}

func TestHubDownNodeDrops(t *testing.T) {
	h := NewHub()
	a, b := h.Node(0), h.Node(1)
	defer a.Close()
	defer b.Close()
	c := newCollect()
	b.SetHandler(c.handler)
	h.SetDown(1, true)
	_ = a.Send(1, ping(1))
	time.Sleep(5 * time.Millisecond)
	c.mu.Lock()
	n := len(c.msgs)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("down node received %d messages", n)
	}
	// Down node cannot send.
	if err := b.Send(0, ping(2)); err == nil {
		t.Fatal("down node sent")
	}
	h.SetDown(1, false)
	if err := a.Send(1, ping(3)); err != nil {
		t.Fatal(err)
	}
	c.waitN(t, 1, time.Second)
}

func TestRouterDispatch(t *testing.T) {
	r := NewRouter()
	var gotVal, gotAck, gotOther atomic.Int32
	r.Handle(wire.KindCommitVal, func(_ wire.NodeID, _ wire.Msg) { gotVal.Add(1) })
	r.Handle(wire.KindCommitAck, func(_ wire.NodeID, _ wire.Msg) { gotAck.Add(1) })
	r.Fallback(func(_ wire.NodeID, _ wire.Msg) { gotOther.Add(1) })
	r.Dispatch(0, &wire.CommitVal{})
	r.Dispatch(0, &wire.CommitAck{})
	r.Dispatch(0, &wire.SafeTime{})
	if gotVal.Load() != 1 || gotAck.Load() != 1 || gotOther.Load() != 1 {
		t.Fatalf("dispatch counts: %d %d %d", gotVal.Load(), gotAck.Load(), gotOther.Load())
	}
}

func TestRouterHandleMany(t *testing.T) {
	r := NewRouter()
	var n atomic.Int32
	r.HandleMany(func(_ wire.NodeID, _ wire.Msg) { n.Add(1) },
		wire.KindCommitVal, wire.KindCommitAck)
	r.Dispatch(1, &wire.CommitVal{})
	r.Dispatch(1, &wire.CommitAck{})
	if n.Load() != 2 {
		t.Fatalf("got %d", n.Load())
	}
}

func reliablePair(t *testing.T, cfg netsim.Config) (*Reliable, *Reliable, *netsim.Network) {
	t.Helper()
	n := netsim.New(cfg)
	rc := ReliableConfig{RTO: 5 * time.Millisecond}
	a := NewReliable(n.Endpoint(0), rc)
	b := NewReliable(n.Endpoint(1), rc)
	t.Cleanup(func() { a.Close(); b.Close(); n.Close() })
	return a, b, n
}

func TestReliablePerfectFabric(t *testing.T) {
	cfg := netsim.Config{Seed: 1, InboxDepth: 4096}
	a, b, _ := reliablePair(t, cfg)
	c := newCollect()
	b.SetHandler(c.handler)
	const N = 200
	for i := uint64(0); i < N; i++ {
		if err := a.Send(1, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.waitN(t, N, 2*time.Second)
	for i, m := range c.msgs {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("out of order at %d: got %d", i, pingSeq(m))
		}
	}
}

func TestReliableSurvivesLossDupReorder(t *testing.T) {
	cfg := netsim.Config{
		Seed:       42,
		MinLatency: 0,
		MaxLatency: 500 * time.Microsecond, // jitter → reordering
		LossProb:   0.2,
		DupProb:    0.2,
		InboxDepth: 8192,
	}
	a, b, _ := reliablePair(t, cfg)
	c := newCollect()
	b.SetHandler(c.handler)
	const N = 500
	for i := uint64(0); i < N; i++ {
		if err := a.Send(1, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.waitN(t, N, 20*time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.msgs) != N {
		t.Fatalf("delivered %d, want exactly %d (no dups)", len(c.msgs), N)
	}
	for i, m := range c.msgs {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("out of order at %d: got %d", i, pingSeq(m))
		}
	}
	if a.Retransmits() == 0 {
		t.Fatal("expected retransmissions under 20% loss")
	}
}

func TestReliableBidirectional(t *testing.T) {
	cfg := netsim.Config{Seed: 3, LossProb: 0.1, MaxLatency: 100 * time.Microsecond, InboxDepth: 8192}
	a, b, _ := reliablePair(t, cfg)
	ca, cb := newCollect(), newCollect()
	a.SetHandler(ca.handler)
	b.SetHandler(cb.handler)
	const N = 100
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < N; i++ {
			_ = a.Send(1, ping(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(0); i < N; i++ {
			_ = b.Send(0, ping(i))
		}
	}()
	wg.Wait()
	ca.waitN(t, N, 10*time.Second)
	cb.waitN(t, N, 10*time.Second)
}

func TestReliableManyPeers(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 9, LossProb: 0.05, MaxLatency: 50 * time.Microsecond, InboxDepth: 8192})
	defer n.Close()
	const peers = 5
	rc := ReliableConfig{RTO: 3 * time.Millisecond}
	dst := NewReliable(n.Endpoint(0), rc)
	defer dst.Close()
	c := newCollect()
	dst.SetHandler(c.handler)
	var srcs []*Reliable
	for i := wire.NodeID(1); i <= peers; i++ {
		s := NewReliable(n.Endpoint(i), rc)
		defer s.Close()
		srcs = append(srcs, s)
	}
	const per = 50
	for _, s := range srcs {
		go func(s *Reliable) {
			for i := uint64(0); i < per; i++ {
				_ = s.Send(0, ping(i))
			}
		}(s)
	}
	c.waitN(t, peers*per, 20*time.Second)
	// Per-sender FIFO must hold.
	c.mu.Lock()
	defer c.mu.Unlock()
	last := map[wire.NodeID]uint64{}
	for i, m := range c.msgs {
		from := c.from[i]
		seq := pingSeq(m)
		if prev, ok := last[from]; ok && seq != prev+1 {
			t.Fatalf("sender %d: seq %d after %d", from, seq, prev)
		}
		last[from] = seq
	}
}

func TestTCPTransport(t *testing.T) {
	a, err := NewTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Addresses learned after construction (the address-book flow).
	a.SetAddr(1, b.Addr())
	b.SetAddr(0, a.Addr())

	ca, cb := newCollect(), newCollect()
	a.SetHandler(ca.handler)
	b.SetHandler(cb.handler)
	const N = 50
	for i := uint64(0); i < N; i++ {
		if err := a.Send(1, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	cb.waitN(t, N, 5*time.Second)
	for i, m := range cb.msgs {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("tcp out of order at %d", i)
		}
	}
	// Reverse direction (b dials a).
	for i := uint64(0); i < N; i++ {
		if err := b.Send(0, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	ca.waitN(t, N, 5*time.Second)
}

// TestTCPCloseStopsEveryReader: Close must end the reader of every socket,
// not only of those that are a route. The second connection of a simultaneous
// dial is nobody's route; left open, its reader — and through the handler the
// whole node behind it — outlived the transport (a closed benchmark cluster
// stayed on the heap, 31 MB in one smallbank_tcp run of ten).
func TestTCPCloseStopsEveryReader(t *testing.T) {
	a, err := NewTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetAddr(1, b.Addr())
	b.SetAddr(0, a.Addr())
	cb := newCollect()
	b.SetHandler(cb.handler)
	if err := a.Send(1, ping(0)); err != nil { // b's route to node 0
		t.Fatal(err)
	}
	cb.waitN(t, 1, 5*time.Second)
	// A second socket that also says it is node 0: b reads it, routes nothing
	// over it.
	extra, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	if _, err := extra.Write(append([]byte{0, 0}, wire.AppendMessage(nil, ping(1))...)); err != nil {
		t.Fatal(err)
	}
	cb.waitN(t, 2, 5*time.Second)

	b.Close()
	done := make(chan struct{})
	go func() { b.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a reader goroutine outlived Close")
	}
	// A Send that passed its closed check before Close ran dials from
	// conn(): it must not open a socket Close will never see.
	if _, err := b.conn(0); err != ErrClosed {
		t.Fatalf("conn after Close: %v, want ErrClosed", err)
	}
}

func TestTCPSendUnknownPeer(t *testing.T) {
	a, err := NewTCP(0, "127.0.0.1:0", map[wire.NodeID]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(9, ping(0)); err == nil {
		t.Fatal("send to unknown peer should fail")
	}
}

func TestClosedTransportsRefuseSend(t *testing.T) {
	h := NewHub()
	m := h.Node(0)
	m.Close()
	if err := m.Send(1, ping(0)); err == nil {
		t.Fatal("closed mem transport sent")
	}
	n := netsim.New(netsim.Config{Seed: 1})
	defer n.Close()
	r := NewReliable(n.Endpoint(0), DefaultReliableConfig())
	r.Close()
	if err := r.Send(1, ping(0)); err == nil {
		t.Fatal("closed reliable transport sent")
	}
}

func TestReliableThroughputSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := netsim.Config{Seed: 5, MinLatency: 5 * time.Microsecond, MaxLatency: 20 * time.Microsecond, InboxDepth: 1 << 15}
	a, b, _ := reliablePair(t, cfg)
	var got atomic.Int64
	done := make(chan struct{})
	b.SetHandler(func(_ wire.NodeID, _ wire.Msg) {
		if got.Add(1) == 2000 {
			close(done)
		}
	})
	start := time.Now()
	for i := uint64(0); i < 2000; i++ {
		if err := a.Send(1, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("only %d/2000 delivered", got.Load())
	}
	elapsed := time.Since(start)
	t.Logf("2000 msgs in %v (%.0f msg/s)", elapsed, 2000/elapsed.Seconds())
}

func ExampleRouter() {
	r := NewRouter()
	r.Handle(wire.KindSafeTime, func(from wire.NodeID, m wire.Msg) {
		v := m.(*wire.SafeTime)
		fmt.Printf("safe-time from=%d epoch=%d wm=%d\n", from, v.Epoch, v.WM)
	})
	r.Dispatch(2, &wire.SafeTime{From: 2, Epoch: 3, WM: 40})
	// Output: safe-time from=2 epoch=3 wm=40
}

func TestHubSendBatchFIFOAndFrames(t *testing.T) {
	h := NewHub()
	a, b := h.Node(0), h.Node(1)
	defer a.Close()
	defer b.Close()
	c := newCollect()
	b.SetHandler(c.handler)

	var batch []wire.Msg
	for i := uint64(0); i < 10; i++ {
		batch = append(batch, ping(i))
	}
	if err := a.SendBatch(1, batch); err != nil {
		t.Fatal(err)
	}
	_ = a.Send(1, ping(10))
	c.waitN(t, 11, time.Second)
	for i, m := range c.msgs {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("out of order at %d: got %d", i, pingSeq(m))
		}
	}
	if h.Messages() != 11 {
		t.Fatalf("messages = %d, want 11", h.Messages())
	}
	if h.Frames() != 2 {
		t.Fatalf("frames = %d, want 2 (one batch hop + one single)", h.Frames())
	}
}

// TestHubDeliversTheSendersMessage: the hub hands every kind over by pointer.
// A message of each kind (wiretest's fixture), sent by Send, by SendBatch and by Multicast to two
// nodes, arrives at every destination as the sender's own record, and each
// delivery counts one message and the exact encoded size in bytes.
func TestHubDeliversTheSendersMessage(t *testing.T) {
	h := NewHub()
	a, b, c := h.Node(0), h.Node(1), h.Node(2)
	defer a.Close()
	defer b.Close()
	defer c.Close()
	cb, cc := newCollect(), newCollect()
	b.SetHandler(cb.handler)
	c.SetHandler(cc.handler)

	msgs := wiretest.AllMessages()
	var bytes uint64
	for _, m := range msgs {
		if err := a.Send(1, m); err != nil {
			t.Fatal(err)
		}
		if err := a.SendBatch(1, []wire.Msg{m}); err != nil {
			t.Fatal(err)
		}
		if err := a.Multicast([]wire.NodeID{1, 2}, m); err != nil {
			t.Fatal(err)
		}
		bytes += 4 * uint64(len(wire.Marshal(m)))
	}
	cb.waitN(t, 3*len(msgs), time.Second)
	cc.waitN(t, len(msgs), time.Second)
	for i, m := range msgs {
		for j, got := range cb.msgs[3*i : 3*i+3] {
			if got != m {
				t.Errorf("%v, delivery %d of 3 to node 1: %p, sent %p", m.Kind(), j+1, got, m)
			}
		}
		if cc.msgs[i] != m {
			t.Errorf("%v, multicast to node 2: %p, sent %p", m.Kind(), cc.msgs[i], m)
		}
	}
	if got, want := h.Messages(), uint64(4*len(msgs)); got != want {
		t.Errorf("Messages() = %d, want %d", got, want)
	}
	if got := h.Bytes(); got != bytes {
		t.Errorf("Bytes() = %d, want %d (Σ len(wire.Marshal(m)) per delivery)", got, bytes)
	}
}

func TestDeliveryTickFiresPerFrame(t *testing.T) {
	h := NewHub()
	a, b := h.Node(0), h.Node(1)
	defer a.Close()
	defer b.Close()
	var msgs, ticks atomic.Int32
	b.SetHandler(func(_ wire.NodeID, _ wire.Msg) { msgs.Add(1) })
	b.SetTickHandler(func() { ticks.Add(1) })

	var batch []wire.Msg
	for i := uint64(0); i < 8; i++ {
		batch = append(batch, ping(i))
	}
	_ = a.SendBatch(1, batch)
	deadline := time.Now().Add(time.Second)
	for msgs.Load() < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/8 delivered", msgs.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := ticks.Load(); got != 1 {
		t.Fatalf("delivery ticks = %d, want 1 for one batch frame", got)
	}
}

// TestSendBatchDoesNotRetainTheSlice pins SendBatch's no-retain contract on all
// three fabrics: the caller reuses its slice the moment SendBatch returns
// (the commit coalescer flushes from the same two buffers forever), so
// overwriting it between batches must not disturb what was sent.
func TestSendBatchDoesNotRetainTheSlice(t *testing.T) {
	const rounds, per = 20, 8
	run := func(t *testing.T, a Transport, c *collect) {
		buf := make([]wire.Msg, per)
		for r := 0; r < rounds; r++ {
			for i := range buf {
				buf[i] = ping(uint64(r*per + i))
			}
			if err := a.SendBatch(1, buf); err != nil {
				t.Fatal(err)
			}
			clear(buf) // what the coalescer does before it parks the buffer
		}
		c.waitN(t, rounds*per, 5*time.Second)
		for i, m := range c.msgs {
			if m == nil || pingSeq(m) != uint64(i) {
				t.Fatalf("message %d arrived as %v", i, m)
			}
		}
	}
	t.Run("hub", func(t *testing.T) {
		h := NewHub()
		a, b := h.Node(0), h.Node(1)
		defer a.Close()
		defer b.Close()
		c := newCollect()
		b.SetHandler(c.handler)
		run(t, a, c)
	})
	t.Run("reliable", func(t *testing.T) {
		a, b, _ := reliablePair(t, netsim.Config{Seed: 1, InboxDepth: 4096})
		c := newCollect()
		b.SetHandler(c.handler)
		run(t, a, c)
	})
	t.Run("tcp", func(t *testing.T) {
		a, err := NewTCP(0, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := NewTCP(1, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		a.SetAddr(1, b.Addr())
		c := newCollect()
		b.SetHandler(c.handler)
		run(t, a, c)
	})
}

// TestHubBatchIsEntriesTickAfterLast: a SendBatch of any length — one message,
// a few, more than the sender stages on its stack — is dispatched in order
// with nothing of another sender's between its messages, and the delivery tick
// runs exactly once for it, after the last. A second sender's single Sends,
// interleaved, stay in their own order and tick once each.
func TestHubBatchIsEntriesTickAfterLast(t *testing.T) {
	h := NewHub()
	a, b, c := h.Node(0), h.Node(1), h.Node(2)
	defer h.Close()

	// The dispatch goroutine's log: a message as (sender, seq), a tick as
	// sender -1. Handler and tick run on that one goroutine.
	type event struct {
		from int
		seq  uint64
	}
	var log []event
	const singles = 200
	lens := []int{1, 4, batchStage + 3, 1, batchStage, 2 * batchStage}
	total := singles
	for _, n := range lens {
		total += n
	}
	done := make(chan struct{})
	b.SetHandler(func(from wire.NodeID, m wire.Msg) { log = append(log, event{int(from), pingSeq(m)}) })
	b.SetTickHandler(func() {
		log = append(log, event{from: -1})
		if len(log) == total+len(lens)+singles {
			close(done)
		}
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < singles; i++ {
			if err := c.Send(1, ping(i)); err != nil {
				t.Error(err)
			}
		}
	}()
	seq := uint64(0)
	for _, n := range lens {
		batch := make([]wire.Msg, n)
		for i := range batch {
			batch[i] = ping(seq)
			seq++
		}
		if err := a.SendBatch(1, batch); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out after %d of %d messages and ticks", len(log), total+len(lens)+singles)
	}

	// Replay the log: per-sender FIFO, and each unit closed by its own tick.
	next := map[int]uint64{}
	ends := map[uint64]bool{} // seq of the last message of each of a's batches
	for end, i := uint64(0), 0; i < len(lens); i++ {
		end += uint64(lens[i])
		ends[end-1] = true
	}
	for i, ev := range log {
		if ev.from == -1 {
			continue
		}
		if ev.seq != next[ev.from] {
			t.Fatalf("event %d: sender %d delivered %d, want %d", i, ev.from, ev.seq, next[ev.from])
		}
		next[ev.from]++
		closes := ev.from == 2 || ends[ev.seq]
		if ticked := log[i+1].from == -1; ticked != closes {
			t.Fatalf("event %d (sender %d, message %d): tick follows = %v, want %v", i, ev.from, ev.seq, ticked, closes)
		}
		if !closes && log[i+1].from != 0 {
			t.Fatalf("event %d: sender %d's message came inside sender 0's batch", i+1, log[i+1].from)
		}
	}
	if got, want := h.Frames(), uint64(len(lens)+singles); got != want {
		t.Errorf("frames = %d, want %d (one per SendBatch, one per Send)", got, want)
	}
}

// TestHubSendBatchAllocatesNothing: a batch of commit messages is staged on
// the sender's stack and copied into the inbox's array — once that array has
// grown to the backlog, the hub allocates nothing for it.
func TestHubSendBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := NewHub()
	a, b := h.Node(0), h.Node(1)
	defer h.Close()
	ticked := make(chan struct{}, 1)
	b.SetHandler(func(wire.NodeID, wire.Msg) {})
	b.SetTickHandler(func() { ticked <- struct{}{} })
	for _, n := range []int{1, 8, batchStage} {
		batch := make([]wire.Msg, n)
		for i := range batch {
			batch[i] = ping(uint64(i))
		}
		send := func() {
			if err := a.SendBatch(1, batch); err != nil {
				t.Fatal(err)
			}
			<-ticked // dispatched: the next run finds the inbox empty again
		}
		send() // warm: the inbox's two arrays reach the batch's length
		send()
		if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
			t.Errorf("SendBatch of %d commit messages allocates %.2f objects, want 0", n, allocs)
		}
	}
}
