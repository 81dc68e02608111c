package commit

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// TestSlotSendsItsEmbeddedRInv: the first R-INV a slot sends is the one
// embedded in it, so the slot, its message, its Updates and its resend pacer
// are one record — a sixteenth of the pipe's chunk.
func TestSlotSendsItsEmbeddedRInv(t *testing.T) {
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

// TestSlotSize: a pipe carves Slots wire.ChunkRecords at a time, and a Slot
// holds pointers, so the array also carries Go's 8-byte malloc header. At 432
// bytes that was 16 × 432 + 8 = 6920, one byte into the 8192-byte size class
// (1.2 KB of every chunk wasted); at 408 it is 6536, inside the 6784-byte
// class. A Slot past 424 bytes leaves the 6912-byte class too.
func TestSlotSize(t *testing.T) {
	const sizeClass = 6784
	size := unsafe.Sizeof(Slot{})
	if chunk := wire.ChunkRecords*size + 8; chunk > sizeClass {
		t.Errorf("Slot is %d bytes: a chunk is %d, past the %d-byte size class", size, chunk, sizeClass)
	}
}

// TestSlotsAreCarvedNotReused is the ABA guard for carving slots: on the hub
// a follower stores the coordinator's own R-INV — &slot.first — until the
// R-VAL reaches it, which can be long after the slot validated. Slots must
// therefore be handed out once and never recycled. Follower 1 is gated while
// 40 slots open on one pipe (2.5 chunks), follower 2 stores every R-INV but
// is kept from seeing any R-VAL; then the 40 validate, 40 more commits run
// through the same pipe, and every R-INV follower 2 still stores must equal,
// field for field, what was sent. A pool would have handed the first slots
// out again and rewritten them.
func TestSlotsAreCarvedNotReused(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(1, 0, wire.BitmapOf(1, 2))
	open := c.gateFollower(1)
	f2 := c.nodes[2]
	var mu sync.Mutex
	var heldVals []*wire.CommitVal
	f2.tr.SetHandler(func(from wire.NodeID, m wire.Msg) {
		if v, ok := m.(*wire.CommitVal); ok {
			mu.Lock()
			heldVals = append(heldVals, v)
			mu.Unlock()
			return
		}
		f2.eng.Handle(from, m)
	})
	f2.tr.SetTickHandler(f2.eng.flushOut)

	const batch = 40
	var slots []*Slot
	sent := make([]wire.CommitInv, 0, 2*batch) // deep copies, in slot order
	commit := func() {
		s := c.localCommit(0, 0, []wire.ObjectID{1}, fmt.Sprintf("v%03d", len(slots)))
		p := s.pipe
		p.mu.Lock()
		inv := *s.inv
		p.mu.Unlock()
		inv.Updates = slices.Clone(inv.Updates)
		for i := range inv.Updates {
			inv.Updates[i].Data = slices.Clone(inv.Updates[i].Data)
		}
		slots = append(slots, s)
		sent = append(sent, inv)
	}
	distinct := func() {
		t.Helper()
		seen := make(map[*Slot]bool)
		for _, s := range slots {
			if seen[s] {
				t.Fatalf("slot %p handed out twice", s)
			}
			seen[s] = true
		}
	}
	stored := func() map[uint64]*wire.CommitInv {
		p, ok := f2.eng.inPipes.Get(slots[0].Tx().Pipe)
		if !ok {
			return nil
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		return maps.Clone(p.stored)
	}
	waitStored := func(n int) map[uint64]*wire.CommitInv {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if st := stored(); len(st) == n {
				return st
			} else if time.Now().After(deadline) {
				t.Fatalf("follower 2 stores %d R-INVs, want %d", len(st), n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	for i := 0; i < batch; i++ {
		commit()
	}
	distinct()
	// Carved, not allocated one by one: consecutive slots of a chunk are
	// neighbours in memory, so 40 slots from at most four chunks leave at
	// most three gaps.
	adjacent := 0
	for i := 1; i < batch; i++ {
		if uintptr(unsafe.Pointer(slots[i]))-uintptr(unsafe.Pointer(slots[i-1])) == unsafe.Sizeof(Slot{}) {
			adjacent++
		}
	}
	if adjacent < batch-4 {
		t.Errorf("only %d of %d consecutive slots are neighbours in memory", adjacent, batch-1)
	}
	waitStored(batch)
	open()
	for _, s := range slots {
		waitClosed(t, s.Done())
	}
	for i := 0; i < batch; i++ {
		commit()
	}
	for _, s := range slots[batch:] {
		waitClosed(t, s.Done())
	}
	distinct()
	st := waitStored(2 * batch)
	for i, want := range sent {
		got := st[want.Tx.Local]
		if got != &slots[i].first {
			t.Fatalf("follower 2 stores %p for %v, not the slot's own R-INV %p: the hub path under test is not zero-copy", got, want.Tx, &slots[i].first)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("stored R-INV %v changed after its slot validated:\n got %+v\nwant %+v", want.Tx, *got, want)
		}
	}

	var vals []*wire.CommitVal
	for deadline := time.Now().Add(2 * time.Second); namedSlots(vals) < 2*batch; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower 2 was sent R-VALs for %d slots, want %d", namedSlots(vals), 2*batch)
		}
		mu.Lock()
		vals = heldVals
		mu.Unlock()
	}
	for _, v := range vals {
		f2.eng.Handle(0, v)
	}
	if n := len(stored()); n != 0 {
		t.Errorf("follower 2 still stores %d R-INVs after their R-VALs", n)
	}
}

// namedSlots counts the slots a run of R-VALs names.
func namedSlots(vals []*wire.CommitVal) int {
	n := 0
	for _, v := range vals {
		for range v.Slots {
			n++
		}
	}
	return n
}

// TestShallowPipelineKeepsItsFIFO: a pipeline that drains between commits
// (one slot in flight at a time) must reuse the order array instead of
// allocating a new one per commit, and a drained FIFO holds no slot (each
// would keep its chunk alive).
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
		if p.head != 0 || len(p.order) != 0 || cap(p.order) == 0 {
			t.Fatalf("commit %d: drained FIFO holds %d entries from %d (cap %d), want none, in the array it had", i, len(p.order), p.head, cap(p.order))
		}
		arr := &p.order[:1][0]
		p.mu.Unlock()
		if i == 0 {
			base = arr
		} else if arr != base {
			t.Fatalf("commit %d reallocated the order FIFO", i)
		}
	}
}

// TestCompactSlidesANeverDrainingWindow drives compactLocked directly: with
// the front slot stuck the window only grows; once the front finishes, the
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
		s.finished = true
	}
	p.compactLocked()
	if p.head != 0 || len(p.live()) != 3*MaxPipelineDepth {
		t.Fatalf("stuck front: head %d, live %d", p.head, len(p.live()))
	}
	// Unstick the front, keep two unvalidated slots at the tail.
	tail := []*Slot{{}, {}}
	p.order = append(p.order, tail...)
	p.order[0].finished = true
	p.compactLocked()
	if p.head != 0 || len(p.order) != 2 || p.order[0] != tail[0] || p.order[1] != tail[1] {
		t.Fatalf("after the slide: head %d, order %d entries", p.head, len(p.order))
	}
	for _, s := range p.order[2:cap(p.order)] {
		if s != nil {
			t.Fatal("the slide left a dead slot referenced behind the window")
		}
	}
	tail[0].finished, tail[1].finished = true, true
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
// record would rewrite a message that is still in flight. 100 commits, each
// waited for before the next so that their windows rarely fold (and the
// records span several chunks), must be named by exactly one R-ACK and one
// R-VAL each, every one of those a record of its own that still names its own
// slots at the end.
func TestEmittedRecordsAreDistinct(t *testing.T) {
	c := newTestCluster(t, 2)
	c.seedObject(1, 0, wire.BitmapOf(1))
	var mu sync.Mutex
	var acks []*wire.CommitAck
	var vals []*wire.CommitVal
	var ackCopies []wire.CommitAck
	var valCopies []wire.CommitVal
	for _, nd := range c.nodes {
		nd.tr.SetHandler(func(from wire.NodeID, m wire.Msg) {
			mu.Lock()
			switch v := m.(type) {
			case *wire.CommitAck:
				acks, ackCopies = append(acks, v), append(ackCopies, *v)
			case *wire.CommitVal:
				vals, valCopies = append(vals, v), append(valCopies, *v)
			}
			mu.Unlock()
			nd.eng.Handle(from, m)
		})
		nd.tr.SetTickHandler(nd.eng.flushOut)
	}
	const commits = 100
	var slots []*Slot
	for i := 0; i < commits; i++ {
		s := c.localCommit(0, 0, []wire.ObjectID{1}, "v")
		waitClosed(t, s.Done())
		slots = append(slots, s)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		done := namedSlots(vals) == commits
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("R-VALs for %d of %d slots arrived", namedSlots(vals), commits)
		}
		time.Sleep(200 * time.Microsecond)
	}
	mu.Lock()
	defer mu.Unlock()
	// Arrival order is TestFlushersKeepAPeersOrder's business; here every
	// transaction must be named by exactly one R-ACK and one R-VAL, each
	// record its own and unchanged since it arrived.
	pipe := slots[0].Tx().Pipe
	ackFor, valFor := map[uint64]*wire.CommitAck{}, map[uint64]*wire.CommitVal{}
	ackSeen, valSeen := map[*wire.CommitAck]bool{}, map[*wire.CommitVal]bool{}
	for i, ack := range acks {
		if ackSeen[ack] || *ack != ackCopies[i] {
			t.Fatalf("the record of R-ACK %+v was handed out twice", ackCopies[i])
		}
		ackSeen[ack] = true
		if ack.Tx.Pipe != pipe || ack.From != 1 {
			t.Errorf("R-ACK %+v: wrong pipe or sender", *ack)
		}
		for local := range ack.Slots {
			if ackFor[local] != nil {
				t.Errorf("slot %d named by a second R-ACK %+v", local, *ack)
			}
			ackFor[local] = ack
		}
	}
	for i, val := range vals {
		if valSeen[val] || *val != valCopies[i] {
			t.Fatalf("the record of R-VAL %+v was handed out twice", valCopies[i])
		}
		valSeen[val] = true
		if val.Tx.Pipe != pipe {
			t.Errorf("R-VAL %+v: wrong pipe", *val)
		}
		for local := range val.Slots {
			if valFor[local] != nil {
				t.Errorf("slot %d named by a second R-VAL %+v", local, *val)
			}
			valFor[local] = val
		}
	}
	for local := uint64(1); local <= commits; local++ {
		if ackFor[local] == nil || valFor[local] == nil {
			t.Errorf("commit %d: R-ACK %v, R-VAL %v", local, ackFor[local], valFor[local])
		}
	}
	if len(ackFor) != commits || len(valFor) != commits {
		t.Errorf("R-ACKs name %d slots and R-VALs %d, want the %d commits", len(ackFor), len(valFor), commits)
	}
	if len(acks) <= 2*wire.ChunkRecords || len(vals) <= 2*wire.ChunkRecords {
		t.Errorf("%d R-ACKs and %d R-VALs: the records did not span three chunks", len(acks), len(vals))
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
