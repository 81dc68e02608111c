package commit

import (
	"sync"
	"testing"
	"time"

	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// gateFollower makes node id hold every inbound message until the returned
// function is called, so a test decides when a slot can validate.
func (c *tcluster) gateFollower(id wire.NodeID) (open func()) {
	nd := c.nodes[id]
	gate := make(chan struct{})
	nd.tr.SetHandler(func(from wire.NodeID, m wire.Msg) {
		<-gate
		nd.eng.Handle(from, m)
	})
	nd.tr.SetTickHandler(nd.eng.flushOut)
	return func() { close(gate) }
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func waitClosed(t *testing.T, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("slot never validated")
	}
}

// TestSlotDoneIsLazy covers the four ways a caller can treat Slot.Done: ask
// before the slot validated, ask after, ask twice, never ask. The channel is
// made on demand, closed exactly once (a second close would panic here), and
// a slot nobody asks about never gets one.
func TestSlotDoneIsLazy(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(1, 0, wire.BitmapOf(1, 2))
	eng := c.nodes[0].eng
	open := c.gateFollower(1)

	commit := func(val string) *Slot { return c.localCommit(0, 0, []wire.ObjectID{1}, val) }

	early := commit("a") // asked before validation
	before := early.Done()
	if before == nil || closed(before) {
		t.Fatal("Done before validation must be an open channel")
	}
	if early.Done() != before {
		t.Fatal("a second Done returned a different channel")
	}
	never := commit("b") // never asked
	late := commit("c")  // asked only after validation

	open()
	waitClosed(t, before)
	if !eng.WaitIdle(2 * time.Second) {
		t.Fatal("pipeline never drained")
	}
	if early.Done() != before || !closed(early.Done()) {
		t.Fatal("Done after validation must stay the same, closed channel")
	}
	after := late.Done()
	if !closed(after) {
		t.Fatal("Done after validation must be closed")
	}
	if after != (<-chan struct{})(closedChan) || late.Done() != after {
		t.Fatal("a validated slot must hand out the shared closed channel, every time")
	}
	if never.done != nil || !never.finished {
		t.Fatalf("a slot nobody asked about: done=%v finished=%v, want no channel and finished", never.done, never.finished)
	}
}

// TestSlotDoneWithoutFollowers: a commit with nobody to replicate to is
// complete when Commit returns, and says so.
func TestSlotDoneWithoutFollowers(t *testing.T) {
	c := newTestCluster(t, 1)
	c.seedObject(1, 0, 0)
	tx, done := c.localWrite(0, 0, []wire.ObjectID{1}, "solo")
	if tx.Local != 1 || !closed(done) {
		t.Fatalf("tx %v, done closed=%v", tx, closed(done))
	}
}

// TestSlotIsOneAllocation: the first R-INV a slot sends is the one embedded
// in it, so the slot, its message and its resend pacer are one object.
func TestSlotIsOneAllocation(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(1, 0, wire.BitmapOf(1, 2))
	open := c.gateFollower(1)
	defer open()
	s := c.localCommit(0, 0, []wire.ObjectID{1}, "a")
	p := c.nodes[0].eng.pipe(0)
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.inv != &s.first {
		t.Fatal("a fresh slot must send its embedded R-INV")
	}
	if s.Tx() != s.inv.Tx || s.pipe != p {
		t.Fatalf("slot %v on pipe %p, R-INV %v on pipe %p", s.Tx(), s.pipe, s.inv.Tx, p)
	}
}

// TestShallowPipelineKeepsItsFIFO: a pipeline that drains between commits
// (one slot in flight at a time) must reuse the order array instead of
// allocating a new one per commit.
func TestShallowPipelineKeepsItsFIFO(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(1, 0, wire.BitmapOf(1, 2))
	eng := c.nodes[0].eng
	var base **Slot
	for i := 0; i < 50; i++ {
		c.localCommit(0, 0, []wire.ObjectID{1}, "v")
		if !eng.WaitIdle(2 * time.Second) {
			t.Fatal("pipeline never drained")
		}
		p := eng.pipe(0)
		p.mu.Lock()
		if p.head != 0 || len(p.order) != 1 {
			t.Fatalf("commit %d: FIFO holds %d entries from %d, want the one new slot at the front", i, len(p.order), p.head)
		}
		arr := &p.order[0]
		p.mu.Unlock()
		if i == 0 {
			base = arr
		} else if arr != base {
			t.Fatalf("commit %d reallocated the order FIFO", i)
		}
	}
}

// TestCompactSlidesANeverDrainingWindow drives compactLocked directly: with
// the front slot stuck the window only grows; once the front validates, the
// trimmed prefix is reclaimed by sliding the live window down, and an array
// grown past the pipeline bound is dropped when the pipeline finally drains.
func TestCompactSlidesANeverDrainingWindow(t *testing.T) {
	p := &outPipe{}
	add := func(n int) {
		for i := 0; i < n; i++ {
			p.order = append(p.order, &Slot{})
		}
	}
	add(3 * MaxPipelineDepth)
	for _, s := range p.order[1:] {
		s.valed = true
	}
	p.compactLocked()
	if p.head != 0 || len(p.live()) != 3*MaxPipelineDepth {
		t.Fatalf("stuck front: head %d, live %d", p.head, len(p.live()))
	}
	// Unstick the front, keep two unvalidated slots at the tail.
	tail := []*Slot{{}, {}}
	p.order = append(p.order, tail...)
	p.order[0].valed = true
	p.compactLocked()
	if p.head != 0 || len(p.order) != 2 || p.order[0] != tail[0] || p.order[1] != tail[1] {
		t.Fatalf("after the slide: head %d, order %d entries", p.head, len(p.order))
	}
	for _, s := range p.order[2:cap(p.order)] {
		if s != nil {
			t.Fatal("the slide left a dead slot referenced behind the window")
		}
	}
	tail[0].valed, tail[1].valed = true, true
	p.compactLocked()
	if p.order != nil || p.head != 0 {
		t.Fatalf("a burst-sized array survived the drain: cap %d", cap(p.order))
	}
}

// TestCoalescerReusesItsBuffers: after the first flushes a peer queue
// enqueues into arrays it already owns, and a parked buffer holds no sent
// message.
func TestCoalescerReusesItsBuffers(t *testing.T) {
	c := newTestCluster(t, 2)
	eng := c.nodes[0].eng
	q := &eng.coQ[1]
	msg := &wire.CommitVal{Tx: wire.TxID{Local: 1}}
	eng.coArmed.Store(true) // keep the timed flusher out: every flush below is this test's
	seen := make(map[*wire.Msg]bool)
	for i := 0; i < 20; i++ {
		eng.enqueue(1, msg)
		q.mu.Lock()
		seen[&q.msgs[0]] = true
		q.mu.Unlock()
		eng.flushOut()
	}
	if len(seen) > 2 {
		t.Fatalf("20 enqueue/flush rounds used %d different arrays, want the queue's two", len(seen))
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.msgs) != 0 || q.spare == nil {
		t.Fatalf("idle queue: %d queued, spare %v", len(q.msgs), q.spare != nil)
	}
	for _, buf := range [][]wire.Msg{q.msgs, q.spare} {
		for _, m := range buf[:cap(buf)] {
			if m != nil {
				t.Fatal("a parked coalescer buffer still references a sent message")
			}
		}
	}
}

// TestEmittedRecordsAreDistinct: R-ACKs and R-VALs are carved from chunks on
// the pipes, and a record must never be handed out twice — on the zero-copy
// hub the receiver holds a pointer into the sender's chunk, so a reused
// record would rewrite a message that is still in flight. 100 pipelined
// commits (six chunks' worth) must arrive as 100 different R-ACKs and 100
// different R-VALs that still name their own transactions at the end.
func TestEmittedRecordsAreDistinct(t *testing.T) {
	c := newTestCluster(t, 2)
	c.seedObject(1, 0, wire.BitmapOf(1))
	var mu sync.Mutex
	var acks []*wire.CommitAck
	var vals []*wire.CommitVal
	for _, nd := range c.nodes {
		nd.tr.SetHandler(func(from wire.NodeID, m wire.Msg) {
			mu.Lock()
			switch v := m.(type) {
			case *wire.CommitAck:
				acks = append(acks, v)
			case *wire.CommitVal:
				vals = append(vals, v)
			}
			mu.Unlock()
			nd.eng.Handle(from, m)
		})
		nd.tr.SetTickHandler(nd.eng.flushOut)
	}
	const commits = 100
	var slots []*Slot
	for i := 0; i < commits; i++ {
		slots = append(slots, c.localCommit(0, 0, []wire.ObjectID{1}, "v"))
	}
	for _, s := range slots {
		waitClosed(t, s.Done())
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		done := len(vals) == commits
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d R-VALs arrived", len(vals), commits)
		}
		time.Sleep(200 * time.Microsecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(acks) != commits {
		t.Fatalf("%d R-ACKs for %d commits", len(acks), commits)
	}
	// Arrival order is TestFlushersKeepAPeersOrder's business; here every
	// transaction must be named by exactly one R-ACK and one R-VAL, each its
	// own record.
	pipe := slots[0].Tx().Pipe
	ackFor, valFor := map[uint64]*wire.CommitAck{}, map[uint64]*wire.CommitVal{}
	ackSeen, valSeen := map[*wire.CommitAck]bool{}, map[*wire.CommitVal]bool{}
	for i := 0; i < commits; i++ {
		ack, val := acks[i], vals[i]
		if ackSeen[ack] || valSeen[val] {
			t.Fatalf("the record of %v's R-ACK or %v's R-VAL was handed out twice", ack.Tx, val.Tx)
		}
		ackSeen[ack], valSeen[val] = true, true
		if ack.Tx.Pipe != pipe || ack.From != 1 || ackFor[ack.Tx.Local] != nil {
			t.Errorf("R-ACK %+v: wrong pipe or sender, or the second for its transaction", *ack)
		}
		if val.Tx.Pipe != pipe || valFor[val.Tx.Local] != nil {
			t.Errorf("R-VAL %+v: wrong pipe, or the second for its transaction", *val)
		}
		ackFor[ack.Tx.Local], valFor[val.Tx.Local] = ack, val
	}
	for local := uint64(1); local <= commits; local++ {
		if ackFor[local] == nil || valFor[local] == nil {
			t.Errorf("commit %d: R-ACK %v, R-VAL %v", local, ackFor[local], valFor[local])
		}
	}
}

// gatedSender is a hub transport that records the R-VALs handed to SendBatch
// and parks the first call until the test lets it go.
type gatedSender struct {
	transport.Transport
	entered, release chan struct{}

	mu   sync.Mutex
	sent []uint64 // Tx.Local of every R-VAL, in the order the link saw them
}

func (g *gatedSender) SendBatch(to wire.NodeID, msgs []wire.Msg) error {
	select {
	case <-g.entered:
	default:
		close(g.entered)
		<-g.release
	}
	g.mu.Lock()
	for _, m := range msgs {
		g.sent = append(g.sent, m.(*wire.CommitVal).Tx.Local)
	}
	g.mu.Unlock()
	return nil
}

// TestFlushersKeepAPeersOrder: flushOut takes a peer's queue under the queue
// lock and sends it after, so a second flusher (a worker's count flush, the
// delivery tick, the timer) that runs while the first is still in SendBatch
// must not put the later messages on the link first, and must not strand them
// either: the first flusher sends them before it is done.
func TestFlushersKeepAPeersOrder(t *testing.T) {
	mgr := viewsvc.NewSelfHosted(viewsvc.Config{Lease: 2 * time.Millisecond}, wire.BitmapOf(0, 1))
	defer mgr.Close()
	g := &gatedSender{
		Transport: transport.NewHub().Node(0),
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	defer g.Close()
	eng := New(0, store.New(), g, mgr.Agent(0), Config{})
	defer eng.Close()
	eng.coArmed.Store(true) // keep the timed flusher out: every flush below is this test's

	eng.enqueue(1, &wire.CommitVal{Tx: wire.TxID{Local: 1}})
	first := make(chan struct{})
	go func() {
		defer close(first)
		eng.flushOut()
	}()
	<-g.entered // the first flusher holds #1 and is inside SendBatch
	eng.enqueue(1, &wire.CommitVal{Tx: wire.TxID{Local: 2}})
	eng.enqueue(1, &wire.CommitVal{Tx: wire.TxID{Local: 3}})
	eng.flushOut() // the second flusher
	close(g.release)
	<-first

	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.sent) != 3 || g.sent[0] != 1 || g.sent[1] != 2 || g.sent[2] != 3 {
		t.Fatalf("the link saw R-VALs %v, want [1 2 3]", g.sent)
	}
}
