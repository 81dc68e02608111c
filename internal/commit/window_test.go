package commit

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/retry"
	"zeus/internal/storage"
	"zeus/internal/store"
	"zeus/internal/wire"
)

// recorder replaces the handlers of the given nodes with ones that keep a
// copy of every R-ACK and R-VAL they receive and hand nothing on.
type recorder struct {
	mu   sync.Mutex
	acks map[wire.NodeID][]wire.CommitAck
	vals map[wire.NodeID][]wire.CommitVal
	mark chan wire.Msg
}

func record(c *tcluster, nodes ...wire.NodeID) *recorder {
	r := &recorder{acks: map[wire.NodeID][]wire.CommitAck{}, vals: map[wire.NodeID][]wire.CommitVal{}, mark: make(chan wire.Msg, 8)}
	for _, id := range nodes {
		c.nodes[id].tr.SetHandler(func(_ wire.NodeID, m wire.Msg) {
			r.mu.Lock()
			defer r.mu.Unlock()
			switch v := m.(type) {
			case *wire.CommitAck:
				r.acks[id] = append(r.acks[id], *v)
			case *wire.CommitVal:
				if v.Tx.Pipe.Node == wire.NoNode {
					r.mark <- m
					return
				}
				r.vals[id] = append(r.vals[id], *v)
			}
		})
	}
	return r
}

// flush sends what from's engine holds — pending windows included — to the
// recorded nodes tos and waits until it has all arrived: a marker R-VAL
// queued behind it keeps its place on each link.
func (r *recorder) flush(t *testing.T, from *tnode, tos ...wire.NodeID) {
	t.Helper()
	from.eng.flushOut()
	marks := map[wire.Msg]bool{}
	for _, to := range tos {
		m := &wire.CommitVal{Tx: wire.TxID{Pipe: wire.PipeID{Node: wire.NoNode}}}
		marks[m] = true
		from.eng.enqueue(to, m)
	}
	from.eng.flushOut()
	for len(marks) > 0 {
		select {
		case m := <-r.mark:
			delete(marks, m)
		case <-time.After(5 * time.Second):
			t.Fatal("a marker R-VAL never arrived")
		}
	}
}

func (r *recorder) acksAt(to wire.NodeID) []wire.CommitAck {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.acks[to])
}

func (r *recorder) valsAt(to wire.NodeID) []wire.CommitVal {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.vals[to])
}

// slotInv is the R-INV of slot local of node 0's worker-0 pipe, writing
// object local.
func slotInv(local uint64, epoch wire.Epoch, prevVal bool) *wire.CommitInv {
	return &wire.CommitInv{
		Tx:    wire.TxID{Pipe: wire.PipeID{Node: 0, Worker: 0}, Local: local},
		Epoch: epoch, Followers: wire.BitmapOf(1), PrevVal: prevVal,
		Updates: []wire.Update{{Obj: wire.ObjectID(local), Version: 1, Data: []byte("v")}},
	}
}

// quiet keeps the timed flusher of n out: every flush is the test's own.
func quiet(n *tnode) { n.eng.coArmed.Store(true) }

func TestFollowerWindows(t *testing.T) {
	pipe := wire.PipeID{Node: 0, Worker: 0}
	ack := func(local, more uint64, epoch wire.Epoch) wire.CommitAck {
		return wire.CommitAck{Tx: wire.TxID{Pipe: pipe, Local: local}, More: more, Epoch: epoch, From: 1}
	}
	t.Run("in-order slots leave as one R-ACK", func(t *testing.T) {
		c := newTestCluster(t, 2)
		fl := c.nodes[1]
		quiet(fl)
		r := record(c, 0)
		e := fl.agent.Epoch()
		for local := uint64(1); local <= 10; local++ {
			fl.eng.Handle(0, slotInv(local, e, false))
		}
		r.flush(t, fl, 0)
		if got, want := r.acksAt(0), []wire.CommitAck{ack(1, 0x1ff, e)}; !slices.Equal(got, want) {
			t.Fatalf("R-ACKs %+v, want %+v", got, want)
		}
		if st := fl.eng.Stats(); st.RAcks != 1 || st.RAckSlots != 10 {
			t.Fatalf("stats count %d R-ACKs naming %d slots, want 1 and 10", st.RAcks, st.RAckSlots)
		}
	})
	t.Run("a partial follower's gaps stay unset", func(t *testing.T) {
		c := newTestCluster(t, 2)
		fl := c.nodes[1]
		quiet(fl)
		r := record(c, 0)
		e := fl.agent.Epoch()
		for _, local := range []uint64{1, 3, 5} {
			fl.eng.Handle(0, slotInv(local, e, true))
		}
		r.flush(t, fl, 0)
		if got, want := r.acksAt(0), []wire.CommitAck{ack(1, 0b1010, e)}; !slices.Equal(got, want) {
			t.Fatalf("R-ACKs %+v, want %+v", got, want)
		}
	})
	t.Run("a slot applied ahead of its predecessors re-bases the window", func(t *testing.T) {
		c := newTestCluster(t, 2)
		fl := c.nodes[1]
		quiet(fl)
		r := record(c, 0)
		e := fl.agent.Epoch()
		replay := slotInv(3, e, false)
		replay.Replay = true
		fl.eng.Handle(0, replay)
		fl.eng.Handle(0, slotInv(1, e, false))
		fl.eng.Handle(0, slotInv(2, e, false))
		r.flush(t, fl, 0)
		if got, want := r.acksAt(0), []wire.CommitAck{ack(1, 0b11, e)}; !slices.Equal(got, want) {
			t.Fatalf("R-ACKs %+v, want %+v", got, want)
		}
	})
	t.Run("a slot 64 past the base opens a new window", func(t *testing.T) {
		c := newTestCluster(t, 2)
		fl := c.nodes[1]
		quiet(fl)
		r := record(c, 0)
		e := fl.agent.Epoch()
		for local := uint64(1); local <= 65; local++ {
			fl.eng.Handle(0, slotInv(local, e, false))
		}
		r.flush(t, fl, 0)
		if got, want := r.acksAt(0), []wire.CommitAck{ack(1, 1<<63-1, e), ack(65, 0, e)}; !slices.Equal(got, want) {
			t.Fatalf("R-ACKs %+v, want %+v", got, want)
		}
	})
	t.Run("an epoch change opens a new window", func(t *testing.T) {
		c := newTestCluster(t, 3)
		fl := c.nodes[1]
		quiet(fl)
		r := record(c, 0)
		e := fl.agent.Epoch()
		fl.eng.Handle(0, slotInv(1, e, false))
		c.hub.SetDown(2, true)
		c.mgr.Fail(2)
		for deadline := time.Now().Add(2 * time.Second); fl.agent.Epoch() == e; time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("no view change at the follower")
			}
		}
		next := fl.agent.Epoch()
		fl.eng.Handle(0, slotInv(2, next, false))
		r.flush(t, fl, 0)
		if got, want := r.acksAt(0), []wire.CommitAck{ack(1, 0, e), ack(2, 0, next)}; !slices.Equal(got, want) {
			t.Fatalf("R-ACKs %+v, want %+v", got, want)
		}
	})
	t.Run("another destination opens a new window", func(t *testing.T) {
		c := newTestCluster(t, 3)
		fl := c.nodes[1]
		quiet(fl)
		r := record(c, 0, 2)
		e := fl.agent.Epoch()
		fl.eng.Handle(0, slotInv(1, e, false))
		replay := slotInv(2, e, false)
		replay.Replay = true
		fl.eng.Handle(2, replay) // node 2 replays the pipe: it gets the R-ACK
		r.flush(t, fl, 0, 2)
		if got, want := r.acksAt(0), []wire.CommitAck{ack(1, 0, e)}; !slices.Equal(got, want) {
			t.Fatalf("R-ACKs at the coordinator %+v, want %+v", got, want)
		}
		if got, want := r.acksAt(2), []wire.CommitAck{ack(2, 0, e)}; !slices.Equal(got, want) {
			t.Fatalf("R-ACKs at the replayer %+v, want %+v", got, want)
		}
	})
}

// TestCoordinatorCompletesExactlyTheNamedSlots: an R-ACK naming slots 1, 3
// and 5 of a pipe with five open validates those three and no other, and
// their R-VAL window names the same three.
func TestCoordinatorCompletesExactlyTheNamedSlots(t *testing.T) {
	c := newTestCluster(t, 2)
	c.seedObject(1, 0, wire.BitmapOf(1))
	co := c.nodes[0]
	r := record(c, 1) // the follower keeps its R-INVs: no real R-ACK comes back
	quiet(co)
	var slots []*Slot
	for i := 0; i < 5; i++ {
		slots = append(slots, c.localCommit(0, 0, []wire.ObjectID{1}, "v"))
	}
	pipe := slots[0].Tx().Pipe
	co.eng.Handle(1, &wire.CommitAck{Tx: wire.TxID{Pipe: pipe, Local: 1}, More: 0b1010, Epoch: co.agent.Epoch(), From: 1})
	for i, s := range slots {
		if want := i%2 == 0; closed(s.Done()) != want {
			t.Errorf("slot %d validated %v, want %v", s.Tx().Local, !want, want)
		}
	}
	r.flush(t, co, 1)
	want := []wire.CommitVal{{Tx: wire.TxID{Pipe: pipe, Local: 1}, More: 0b1010, Epoch: co.agent.Epoch()}}
	if got := r.valsAt(1); !slices.Equal(got, want) {
		t.Fatalf("R-VALs %+v, want %+v", got, want)
	}
	co.eng.Handle(1, &wire.CommitAck{Tx: wire.TxID{Pipe: pipe, Local: 2}, More: 0b10, Epoch: co.agent.Epoch(), From: 1})
	for _, s := range slots {
		waitClosed(t, s.Done())
	}
}

// TestOneRValToTheUnionOfTargets: slots 1 and 2 of one pipe follow different
// nodes; validated together they leave as one R-VAL naming both, sent to
// both followers (each takes the other's slot as ordering only).
func TestOneRValToTheUnionOfTargets(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(1, 0, wire.BitmapOf(1))
	c.seedObject(2, 0, wire.BitmapOf(2))
	co := c.nodes[0]
	r := record(c, 1, 2)
	quiet(co)
	one := c.localCommit(0, 0, []wire.ObjectID{1}, "one")
	two := c.localCommit(0, 0, []wire.ObjectID{2}, "two")
	e := co.agent.Epoch()
	co.eng.Handle(1, &wire.CommitAck{Tx: one.Tx(), Epoch: e, From: 1})
	co.eng.Handle(2, &wire.CommitAck{Tx: two.Tx(), Epoch: e, From: 2})
	waitClosed(t, two.Done())
	r.flush(t, co, 1, 2)
	want := []wire.CommitVal{{Tx: one.Tx(), More: 1, Epoch: e}}
	for _, n := range []wire.NodeID{1, 2} {
		if got := r.valsAt(n); !slices.Equal(got, want) {
			t.Errorf("node %d received R-VALs %+v, want %+v", n, got, want)
		}
	}
	if st := co.eng.Stats(); st.RVals != 2 || st.RValSlots != 4 {
		t.Errorf("stats count %d R-VALs naming %d slots, want 2 and 4", st.RVals, st.RValSlots)
	}
}

// TestAnIdleCommitValidatesOnItsTimer: with no delivery tick to flush on,
// one commit on an idle cluster still validates at both followers, because
// setting a window bit arms the coalescer's timer as an enqueue does. Nothing
// else moves the R-ACKs and the R-VAL: no further commit, no WaitIdle.
func TestAnIdleCommitValidatesOnItsTimer(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(1, 0, wire.BitmapOf(1, 2))
	for _, nd := range c.nodes {
		nd.tr.SetTickHandler(func() {})
	}
	// The R-ACK leaves on the follower's timer, then the R-VAL on the
	// coordinator's: two timer cycles, each coalesceInterval or what this
	// host's timers stretch it to. Without the arming, nothing sends either.
	bound := 100 * max(coalesceInterval, retry.TimerGranularity())
	start := time.Now()
	c.localCommit(0, 0, []wire.ObjectID{1}, "v1")
	for _, n := range []wire.NodeID{1, 2} {
		for o, _ := c.nodes[n].st.Get(1); ; time.Sleep(20 * time.Microsecond) {
			o.Mu.Lock()
			ver, valid := o.TVersion(), o.TState() == store.TValid
			o.Mu.Unlock()
			if ver == 1 && valid {
				break
			}
			if time.Since(start) > bound {
				t.Fatalf("follower %d not Valid at v1 %v after the commit (v%d)", n, bound, ver)
			}
		}
	}
	t.Logf("both followers Valid %v after the commit", time.Since(start))
}

// TestAFailedAppendSetsNoBit is TestAnRAckAcknowledgesOnlyItsOwnSlot's first
// case seen from the window: slot 1's append fails and slot 2's succeeds, so
// slot 2 validates; slot 1's bit is never set in any window, and no R-ACK
// names it, until its retried append returns.
func TestAFailedAppendSetsNoBit(t *testing.T) {
	cs := &countingStore{refuse: 1}
	c := newTestClusterWith(t, 2, onNode(1, Config{Log: storage.NewLog(cs, nil)}))
	c.seedObject(1, 0, wire.BitmapOf(1))
	c.seedObject(2, 0, wire.BitmapOf(1))
	co, fl := c.nodes[0], c.nodes[1]
	var released, early atomic.Bool
	co.tr.SetHandler(func(from wire.NodeID, m wire.Msg) {
		if ack, ok := m.(*wire.CommitAck); ok {
			for local := range ack.Slots {
				if local == 1 && !released.Load() {
					early.Store(true)
				}
			}
		}
		co.eng.Handle(from, m)
	})
	one := c.localCommit(0, 0, []wire.ObjectID{1}, "one")
	two := c.localCommit(0, 0, []wire.ObjectID{2}, "two")
	waitClosed(t, two.Done())
	ip, ok := fl.eng.inPipes.Get(one.Tx().Pipe)
	if !ok {
		t.Fatal("the follower has no pipe for the coordinator")
	}
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		ip.wmu.Lock()
		w := ip.ack
		ip.wmu.Unlock()
		if w.mask != 0 && w.base <= 1 && 1-w.base < 64 && w.mask>>(1-w.base)&1 == 1 {
			t.Fatalf("slot 1's bit is set (window base %d mask %#x) though its append failed", w.base, w.mask)
		}
		if early.Load() {
			t.Fatal("an R-ACK named slot 1 though its append failed")
		}
	}
	if closed(one.Done()) {
		t.Fatal("slot 1 validated though its append failed")
	}
	released.Store(true)
	cs.mu.Lock()
	cs.refuse = 0
	cs.mu.Unlock()
	waitClosed(t, one.Done())
	if early.Load() {
		t.Fatal("an R-ACK named slot 1 before its retried append returned")
	}
}

// TestWindowStats: pipelined commits to two followers name every slot once
// per follower in R-ACKs and once per target in R-VALs, in fewer messages
// than slots, and the coalescer's per-peer high-water mark is recorded.
func TestWindowStats(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(1, 0, wire.BitmapOf(1, 2))
	const commits = 200
	for i := 0; i < commits; i++ {
		c.localCommit(0, 0, []wire.ObjectID{1}, "v")
	}
	if !c.nodes[0].eng.WaitIdle(5 * time.Second) {
		t.Fatal("pipeline never drained")
	}
	var acks, ackSlots uint64
	for _, n := range []wire.NodeID{1, 2} {
		st := c.nodes[n].eng.Stats()
		acks, ackSlots = acks+st.RAcks, ackSlots+st.RAckSlots
	}
	if ackSlots != 2*commits || acks == 0 || acks >= ackSlots {
		t.Errorf("%d R-ACKs name %d slots, want %d slots in fewer messages", acks, ackSlots, 2*commits)
	}
	// The last R-VAL may still be in its window or on the link.
	c.nodes[0].eng.flushOut()
	co := c.nodes[0].eng.Stats()
	if co.RValSlots != 2*commits || co.RVals == 0 || co.RVals >= co.RValSlots {
		t.Errorf("%d R-VALs name %d slots, want %d slots in fewer messages", co.RVals, co.RValSlots, 2*commits)
	}
	if co.QueueMax == 0 {
		t.Error("the coalescer's high-water mark was never recorded")
	}
}
