package ownership

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// script holds what the engines of a scripted cluster send, for the test to
// deliver — by calling the destination engine's Handle — in the order it
// chooses. Nothing moves unless the test moves it.
type script struct {
	mu   sync.Mutex
	msgs []scripted
}

type scripted struct {
	from, to wire.NodeID
	m        wire.Msg
}

func (s *script) add(from, to wire.NodeID, m wire.Msg) {
	s.mu.Lock()
	s.msgs = append(s.msgs, scripted{from, to, m})
	s.mu.Unlock()
}

// scriptedTransport queues every send on its script instead of delivering it.
type scriptedTransport struct {
	transport.Transport
	s *script
}

func (t scriptedTransport) Send(to wire.NodeID, m wire.Msg) error {
	t.s.add(t.Self(), to, m)
	return nil
}

func (t scriptedTransport) SendBatch(to wire.NodeID, msgs []wire.Msg) error {
	for _, m := range msgs {
		t.s.add(t.Self(), to, m)
	}
	return nil
}

func (t scriptedTransport) Multicast(dsts []wire.NodeID, m wire.Msg) error {
	for _, to := range dsts {
		t.s.add(t.Self(), to, m)
	}
	return nil
}

// newScriptedCluster is the tcluster harness with n engines, all directory
// drivers, whose traffic waits on the returned script. The view has one more
// member, node n, that runs no engine: failing it is the scripted epoch
// change. No attempt times out within a test.
func newScriptedCluster(t *testing.T, n int) (*tcluster, *script) {
	t.Helper()
	var drivers wire.Bitmap
	for i := 0; i < n; i++ {
		drivers = drivers.Add(wire.NodeID(i))
	}
	hub := transport.NewHub()
	mgr := viewsvc.NewSelfHosted(viewsvc.Config{Lease: time.Millisecond}, drivers.Add(wire.NodeID(n)))
	t.Cleanup(mgr.Close)
	c := &tcluster{hub: hub, mgr: mgr, dirs: drivers}
	s := &script{}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		tr := scriptedTransport{hub.Node(id), s}
		nd := &tnode{id: id, st: store.New(), tr: tr, agent: mgr.Agent(id)}
		nd.eng = New(id, nd.st, tr, nd.agent, c.config())
		nd.eng.attemptTimeout, nd.eng.deadline = time.Hour, time.Hour
		c.nodes = append(c.nodes, nd)
		t.Cleanup(func() { nd.eng.Close(); tr.Close() })
	}
	return c, s
}

// deliver hands the first queued message from → to of kind k to to's engine,
// waiting up to a second for it to be sent.
func (c *tcluster) deliver(t *testing.T, s *script, from, to wire.NodeID, k wire.Kind) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(100 * time.Microsecond) {
		s.mu.Lock()
		for i, q := range s.msgs {
			if q.from == from && q.to == to && q.m.Kind() == k {
				s.msgs = append(s.msgs[:i], s.msgs[i+1:]...)
				s.mu.Unlock()
				c.nodes[to].eng.Handle(from, q.m)
				return
			}
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("no %v from %d to %d was sent", k, from, to)
		}
	}
}

// ownerSide is one node's ownership record for obj, as the dumps print it.
func (c *tcluster) ownerSide(id wire.NodeID, obj wire.ObjectID) string {
	o, ok := c.nodes[id].st.Get(obj)
	if !ok {
		return "absent"
	}
	o.Mu.Lock()
	defer o.Mu.Unlock()
	s := fmt.Sprintf("%v %v o_ts %v", o.LevelLocked(), o.OStateLocked(), o.OTSLocked())
	if p, ok := o.PendingLocked(); ok {
		s += fmt.Sprintf(" pending %v by %d for %d", p.TS, p.Driver, p.Requester)
	}
	return s
}

// TestDuplicateRecoveryRespRevivesAnOwner is a scripted schedule, written while
// looking for ROADMAP item 2's same-version split. It characterises what it
// found instead: when an epoch change leaves an arbitration pending at every
// arbiter, each of them replays it and each replay answers the live requester
// with a RESP. The requester applies the first; the second, at the o_ts it
// already holds, is a grant GrantLocked accepts — and it clears whatever
// arbitration the node has accepted since. Here that is a move away from it,
// already ACKed, so the move completes and two nodes hold Owner level. The fix
// flips the ownersOf assertion.
//
// Three engines, all drivers; object 1 owned by node 2, readers 0 and 1.
//
//  1. Node 1 acquires: it drives A = ⟨2,1⟩; A's INVs reach nodes 0 and 2,
//     whose ACKs are left in flight.
//  2. Node 3 fails (epoch 2). Nodes 0 and 2 replay A; each replay completes
//     and RESPs node 1. The first RESP grants A: node 1 owns at ⟨2,1⟩.
//  3. Node 0 acquires: it drives B = ⟨3,0⟩; node 1 accepts B and ACKs.
//  4. The second RESP reaches node 1: A again, at its own o_ts.
//  5. Node 2 accepts B and ACKs; node 0 applies B and owns at ⟨3,0⟩.
func TestDuplicateRecoveryRespRevivesAnOwner(t *testing.T) {
	const obj = wire.ObjectID(1)
	c, s := newScriptedCluster(t, 3)
	for _, nd := range c.nodes {
		o, _ := nd.st.GetOrCreate(obj)
		o.Mu.Lock()
		o.GrantLocked(nd.id, wire.OTS{Ver: 1, Node: 2}, wire.ReplicaSet{Owner: 2, Readers: wire.BitmapOf(0, 1)},
			store.Shipped{Has: true, Version: 1, Data: []byte("v1")})
		o.Mu.Unlock()
	}
	acquire := func(id wire.NodeID) <-chan error {
		done := make(chan error, 1)
		go func() { done <- c.nodes[id].eng.AcquireOwnership(obj) }()
		return done
	}

	// 1. A = ⟨2,1⟩, INVs applied, ACKs in flight.
	a := acquire(1)
	c.deliver(t, s, 1, 0, wire.KindOwnInv)
	c.deliver(t, s, 1, 2, wire.KindOwnInv)

	// 2. The epoch change: each engine prunes, then replays.
	c.mgr.Fail(3)
	if !c.mgr.WaitEpoch(2, time.Second) {
		t.Fatal("the view change never happened")
	}
	live := c.mgr.View().Live
	for _, nd := range c.nodes {
		nd.eng.Pause()
		nd.eng.PruneDead(live)
	}
	for _, nd := range c.nodes {
		nd.eng.Resume()
	}
	for _, replayer := range []wire.NodeID{0, 2} {
		for _, arbiter := range []wire.NodeID{0, 1, 2} {
			if arbiter != replayer {
				c.deliver(t, s, replayer, arbiter, wire.KindOwnInv)
				c.deliver(t, s, arbiter, replayer, wire.KindOwnAck)
			}
		}
	}
	c.deliver(t, s, 0, 1, wire.KindOwnResp)
	if err := <-a; err != nil {
		t.Fatalf("node 1's acquisition: %v", err)
	}
	c.deliver(t, s, 1, 0, wire.KindOwnVal)
	c.deliver(t, s, 1, 2, wire.KindOwnVal)

	// 3. B = ⟨3,0⟩, accepted by the owner.
	b := acquire(0)
	c.deliver(t, s, 0, 1, wire.KindOwnInv)
	if got := c.ownerSide(1, obj); got != "reader Invalid o_ts ⟨2,1⟩ pending ⟨3,0⟩ by 0 for 0" {
		t.Fatalf("node 1 after accepting B: %s", got)
	}

	// 4. The second replay's RESP.
	c.deliver(t, s, 2, 1, wire.KindOwnResp)

	// 5. B completes.
	c.deliver(t, s, 0, 2, wire.KindOwnInv)
	c.deliver(t, s, 1, 0, wire.KindOwnAck)
	c.deliver(t, s, 2, 0, wire.KindOwnAck)
	if err := <-b; err != nil {
		t.Fatalf("node 0's acquisition: %v", err)
	}
	c.deliver(t, s, 0, 1, wire.KindOwnVal)
	c.deliver(t, s, 0, 2, wire.KindOwnVal)

	for id, want := range []string{
		"owner Valid o_ts ⟨3,0⟩",
		"owner Valid o_ts ⟨2,1⟩", // revived: it ACKed B, then re-applied A
		"reader Valid o_ts ⟨3,0⟩",
	} {
		if got := c.ownerSide(wire.NodeID(id), obj); got != want {
			t.Errorf("node %d: %s, want %s", id, got, want)
		}
	}
	if owners := c.ownersOf(obj); len(owners) != 2 {
		t.Errorf("owners %v: the schedule no longer revives node 1", owners)
	}
}
