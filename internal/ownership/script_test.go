package ownership

import (
	"fmt"
	"slices"
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

// take removes the first queued message from → to of kind k that match
// accepts (nil accepts any) and returns it, waiting up to a second for one to
// be sent.
func (s *script) take(t *testing.T, from, to wire.NodeID, k wire.Kind, match func(wire.Msg) bool) wire.Msg {
	t.Helper()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(100 * time.Microsecond) {
		s.mu.Lock()
		for i, q := range s.msgs {
			if q.from == from && q.to == to && q.m.Kind() == k && (match == nil || match(q.m)) {
				s.msgs = append(s.msgs[:i], s.msgs[i+1:]...)
				s.mu.Unlock()
				return q.m
			}
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("no %v from %d to %d was sent", k, from, to)
		}
	}
}

// deliver hands the first queued message from → to of kind k to to's engine.
func (c *tcluster) deliver(t *testing.T, s *script, from, to wire.NodeID, k wire.Kind) {
	t.Helper()
	c.nodes[to].eng.Handle(from, s.take(t, from, to, k, nil))
}

// queued reports whether a message from → to of kind k waits on the script.
func (s *script) queued(from, to wire.NodeID, k wire.Kind) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, q := range s.msgs {
		if q.from == from && q.to == to && q.m.Kind() == k {
			return true
		}
	}
	return false
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

// valueOf is one node's value for obj: its version, state and payload.
func (c *tcluster) valueOf(id wire.NodeID, obj wire.ObjectID) string {
	o, ok := c.nodes[id].st.Get(obj)
	if !ok {
		return "absent"
	}
	o.Mu.Lock()
	defer o.Mu.Unlock()
	ver, st := o.TSnapshot()
	return fmt.Sprintf("v%d %v %q", ver, st, o.DataLocked())
}

// seedScripted gives every node of c the grant of obj to owner with readers;
// each holds v1, but a node listed in empty holds no value.
func (c *tcluster) seedScripted(obj wire.ObjectID, owner wire.NodeID, readers wire.Bitmap, empty ...wire.NodeID) {
	for _, nd := range c.nodes {
		val := store.Shipped{Has: true, Version: 1, Data: []byte("v1")}
		if slices.Contains(empty, nd.id) {
			val = store.Shipped{}
		}
		o, _ := nd.st.GetOrCreate(obj)
		o.Mu.Lock()
		o.GrantLocked(nd.id, wire.OTS{Ver: 1, Node: owner}, wire.ReplicaSet{Owner: owner, Readers: readers}, val)
		o.Mu.Unlock()
	}
}

// acquire starts node id's acquisition of obj; its error arrives on the
// returned channel.
func (c *tcluster) acquire(id wire.NodeID, obj wire.ObjectID) <-chan error {
	done := make(chan error, 1)
	go func() { done <- c.nodes[id].eng.AcquireOwnership(obj) }()
	return done
}

// epochChange fails node n, the member that runs no engine, and runs every
// engine's view change: prune, then the arb-replays.
func (c *tcluster) epochChange(t *testing.T, n wire.NodeID) {
	t.Helper()
	c.mgr.Fail(n)
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
}

// TestDuplicateRecoveryRespLeavesOneOwner is a scripted schedule, written while
// looking for ROADMAP item 2's same-version split. It pins what it found
// instead: when an epoch change leaves an arbitration pending at every
// arbiter, each of them replays it and each replay answers the live requester
// with a RESP. The requester applies the first; the second, at the o_ts it
// already holds, arrives after the node has accepted a newer arbitration — a
// move away from it, already ACKed. GrantLocked refuses a grant older than the
// pending arbitration, so the RESP leaves that arbitration in place, the move
// completes, and one node owns the object.
//
// Three engines, all drivers; object 1 owned by node 2, readers 0 and 1.
//
//  1. Node 1 acquires: it drives A = ⟨2,1⟩; A's INVs reach nodes 0 and 2,
//     whose ACKs are left in flight.
//  2. Node 3 fails (epoch 2). Nodes 0 and 2 replay A; each replay completes
//     and RESPs node 1. The first RESP grants A: node 1 owns at ⟨2,1⟩.
//  3. Node 0 acquires: it drives B = ⟨3,0⟩; node 1 accepts B and ACKs.
//  4. The second RESP reaches node 1: A again, older than B, refused.
//  5. Node 2 accepts B and ACKs; node 0 applies B and owns at ⟨3,0⟩.
func TestDuplicateRecoveryRespLeavesOneOwner(t *testing.T) {
	const obj = wire.ObjectID(1)
	c, s := newScriptedCluster(t, 3)
	c.seedScripted(obj, 2, wire.BitmapOf(0, 1))

	// 1. A = ⟨2,1⟩, INVs applied, ACKs in flight.
	a := c.acquire(1, obj)
	c.deliver(t, s, 1, 0, wire.KindOwnInv)
	c.deliver(t, s, 1, 2, wire.KindOwnInv)

	// 2. The epoch change: each engine prunes, then replays.
	c.epochChange(t, 3)
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
	b := c.acquire(0, obj)
	c.deliver(t, s, 0, 1, wire.KindOwnInv)
	if got := c.ownerSide(1, obj); got != "reader Invalid o_ts ⟨2,1⟩ pending ⟨3,0⟩ by 0 for 0" {
		t.Fatalf("node 1 after accepting B: %s", got)
	}

	// 4. The second replay's RESP.
	c.deliver(t, s, 2, 1, wire.KindOwnResp)
	if got := c.ownerSide(1, obj); got != "reader Invalid o_ts ⟨2,1⟩ pending ⟨3,0⟩ by 0 for 0" {
		t.Fatalf("node 1 after the second RESP: %s", got)
	}

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
		"reader Valid o_ts ⟨3,0⟩",
		"reader Valid o_ts ⟨3,0⟩",
	} {
		if got := c.ownerSide(wire.NodeID(id), obj); got != want {
			t.Errorf("node %d: %s, want %s", id, got, want)
		}
	}
	if owners := c.ownersOf(obj); len(owners) != 1 {
		t.Errorf("owners %v, want node 0 alone", owners)
	}
}

// TestListedButEmptyRequesterGetsTheValue: a requester the replica set lists
// but which holds no value states so (Holds 0), and the data source ships the
// value with its ACK. Inferring the need from the set instead — a listed
// reader holds the value — made node 1 the owner of version 0.
//
// Three engines, all drivers; object 1 owned by node 2, readers 0 and 1; node
// 1 holds nothing, nodes 0 and 2 hold v1. Node 1 acquires.
func TestListedButEmptyRequesterGetsTheValue(t *testing.T) {
	const obj = wire.ObjectID(1)
	c, s := newScriptedCluster(t, 3)
	c.seedScripted(obj, 2, wire.BitmapOf(0, 1), 1)

	a := c.acquire(1, obj)
	for _, arbiter := range []wire.NodeID{0, 2} {
		c.deliver(t, s, 1, arbiter, wire.KindOwnInv)
		c.deliver(t, s, arbiter, 1, wire.KindOwnAck)
	}
	if err := <-a; err != nil {
		t.Fatalf("node 1's acquisition: %v", err)
	}
	c.deliver(t, s, 1, 0, wire.KindOwnVal)
	c.deliver(t, s, 1, 2, wire.KindOwnVal)

	if got := c.ownerSide(1, obj); got != "owner Valid o_ts ⟨2,1⟩" {
		t.Errorf("node 1: %s", got)
	}
	if got := c.valueOf(1, obj); got != `v1 Valid "v1"` {
		t.Errorf("node 1 owns %s, want v1", got)
	}
	if owners := c.ownersOf(obj); len(owners) != 1 {
		t.Errorf("owners %v, want node 1 alone", owners)
	}
}

// TestReplayingSourceShipsTheValue: when the node that replays an arbitration
// is its data source, its own ACK — counted without a message — ships the
// value like any other source's, and the RESP carries it. Counting the
// replayer's ACK as a bare acknowledgement sent a RESP with no value and no
// version, and its requester became owner of version 0.
//
// Three engines, all drivers; object 1 owned by node 2, readers 0 and 1; node
// 1 holds nothing. Node 1 acquires A = ⟨2,1⟩; A's INVs reach nodes 0 and 2,
// whose ACKs arrive after the epoch change and are dropped. Node 2 replays A
// and RESPs node 1.
func TestReplayingSourceShipsTheValue(t *testing.T) {
	const obj = wire.ObjectID(1)
	c, s := newScriptedCluster(t, 3)
	c.seedScripted(obj, 2, wire.BitmapOf(0, 1), 1)

	a := c.acquire(1, obj)
	c.deliver(t, s, 1, 0, wire.KindOwnInv)
	c.deliver(t, s, 1, 2, wire.KindOwnInv)
	c.epochChange(t, 3)
	c.deliver(t, s, 0, 1, wire.KindOwnAck) // epoch 1: dropped
	c.deliver(t, s, 2, 1, wire.KindOwnAck)
	for _, arbiter := range []wire.NodeID{0, 1} {
		c.deliver(t, s, 2, arbiter, wire.KindOwnInv)
		c.deliver(t, s, arbiter, 2, wire.KindOwnAck)
	}
	c.deliver(t, s, 2, 1, wire.KindOwnResp)
	if err := <-a; err != nil {
		t.Fatalf("node 1's acquisition: %v", err)
	}
	c.deliver(t, s, 1, 0, wire.KindOwnVal)
	c.deliver(t, s, 1, 2, wire.KindOwnVal)

	if got := c.ownerSide(1, obj); got != "owner Valid o_ts ⟨2,1⟩" {
		t.Errorf("node 1: %s", got)
	}
	if got := c.valueOf(1, obj); got != `v1 Valid "v1"` {
		t.Errorf("node 1 owns %s, want v1", got)
	}
	if owners := c.ownersOf(obj); len(owners) != 1 {
		t.Errorf("owners %v, want node 1 alone", owners)
	}
}

// TestReplayShipsPastAStaleHolds: a replay's Holds is the one its REQ stated,
// which may predate a drop of the requester's replica, and its requester may
// no longer run the request to restate it. So the data source ships on every
// replay, and the RESP it completes is backed: without that, the requester
// refuses it, sends no VAL, and every later replay of the arbitration is
// refused again.
//
// Three engines, all drivers; object 1 owned by node 2 with reader 0, all at
// v1; node 1 holds nothing. Node 0 drives a REQ node 1 sent while it held v1
// (Holds 1) and has since given up; node 2's ACK reports v1 and ships
// nothing, and node 1 ignores the grant. After the epoch change node 0
// replays it and RESPs node 1.
func TestReplayShipsPastAStaleHolds(t *testing.T) {
	const obj = wire.ObjectID(1)
	c, s := newScriptedCluster(t, 3)
	c.seedScripted(obj, 2, wire.BitmapOf(0), 1)

	c.nodes[0].eng.Handle(1, &wire.OwnReq{ReqID: 1<<48 | 99, Obj: obj, Requester: 1, Mode: wire.AcquireOwner,
		Epoch: 1, Shard: uint32(c.nodes[0].eng.dir.ShardOf(obj)), Holds: 1})
	c.deliver(t, s, 0, 1, wire.KindOwnInv) // node 1 ACKs itself: a request it does not run
	c.deliver(t, s, 0, 2, wire.KindOwnInv)
	c.deliver(t, s, 2, 1, wire.KindOwnAck)
	c.deliver(t, s, 0, 1, wire.KindOwnAck)
	c.epochChange(t, 3)
	for _, arbiter := range []wire.NodeID{1, 2} {
		c.deliver(t, s, 0, arbiter, wire.KindOwnInv)
		c.deliver(t, s, arbiter, 0, wire.KindOwnAck)
	}
	c.deliver(t, s, 0, 1, wire.KindOwnResp)
	c.deliver(t, s, 1, 0, wire.KindOwnVal)
	c.deliver(t, s, 1, 2, wire.KindOwnVal)

	if got := c.ownerSide(1, obj); got != "owner Valid o_ts ⟨2,0⟩" {
		t.Errorf("node 1: %s", got)
	}
	if got := c.valueOf(1, obj); got != `v1 Valid "v1"` {
		t.Errorf("node 1 owns %s, want v1", got)
	}
	for _, id := range []wire.NodeID{0, 2} {
		if got := c.ownerSide(id, obj); got != "reader Valid o_ts ⟨2,0⟩" {
			t.Errorf("node %d: %s", id, got)
		}
	}
}

// TestReplayWithADeadSourceShipsFromAReader: an arbitration replayed after
// its data source — the owner — died takes a live reader as its source, as a
// fresh request on an ownerless object does. Replayed without one, its RESP
// carried no value and no version, and the requester became a reader of
// version 0: every read-only transaction on it read nothing, Valid, while
// its other objects moved on (a torn read in the public-API owner-kill
// torture).
//
// Three engines, all drivers, and node 3, which runs none, owning object 1
// with readers 0 and 1 at v1; node 2 holds nothing. Node 2 acquires a reader
// replica; its INVs reach nodes 0 and 1, not the owner, which dies. Node 2
// replays its own arbitration and completes it.
func TestReplayWithADeadSourceShipsFromAReader(t *testing.T) {
	const obj = wire.ObjectID(1)
	c, s := newScriptedCluster(t, 3)
	c.seedScripted(obj, 3, wire.BitmapOf(0, 1), 2)

	done := make(chan error, 1)
	go func() { done <- c.nodes[2].eng.AcquireRead(obj) }()
	c.deliver(t, s, 2, 0, wire.KindOwnInv)
	c.deliver(t, s, 2, 1, wire.KindOwnInv)
	c.epochChange(t, 3)
	for _, arbiter := range []wire.NodeID{0, 1} {
		c.deliver(t, s, arbiter, 2, wire.KindOwnAck) // epoch 1: dropped
	}
	for _, arbiter := range []wire.NodeID{0, 1} {
		c.deliver(t, s, 2, arbiter, wire.KindOwnInv)
		c.deliver(t, s, arbiter, 2, wire.KindOwnAck)
	}
	if err := <-done; err != nil {
		t.Fatalf("node 2's acquisition: %v", err)
	}
	if got := c.valueOf(2, obj); got != `v1 Valid "v1"` {
		t.Errorf("node 2 reads %s as %s, want v1", c.ownerSide(2, obj), got)
	}
}

// unbacked is the data source's ACK as a source that holds v5 and ships
// nothing would send it: the grant it completes would raise its requester
// over the older value it holds.
func unbacked(m wire.Msg) wire.Msg {
	ack := *m.(*wire.OwnAck)
	ack.TVersion, ack.HasData, ack.Data = 5, false, nil
	return &ack
}

// TestUnbackedGrantIsRetried: a grant whose source reports a newer version
// than the requester holds, and ships nothing, is refused by the grant
// transition. The requester keeps its pending arbitration, sends no VAL and
// retries the same request; the driver re-INVs at the same o_ts, and the
// grant that follows is backed.
//
// Three engines, all drivers; object 1 owned by node 2, readers 0 and 1, all
// at v1. Node 1 acquires; node 2's first ACK is replaced by unbacked's.
func TestUnbackedGrantIsRetried(t *testing.T) {
	const obj = wire.ObjectID(1)
	c, s := newScriptedCluster(t, 3)
	c.seedScripted(obj, 2, wire.BitmapOf(0, 1))

	a := c.acquire(1, obj)
	first := s.take(t, 1, 0, wire.KindOwnInv, nil).(*wire.OwnInv)
	c.nodes[0].eng.Handle(1, first)
	c.deliver(t, s, 1, 2, wire.KindOwnInv)
	c.deliver(t, s, 0, 1, wire.KindOwnAck)
	c.nodes[1].eng.Handle(2, unbacked(s.take(t, 2, 1, wire.KindOwnAck, nil)))
	if got := c.ownerSide(1, obj); got != "reader Drive o_ts ⟨1,2⟩ pending ⟨2,1⟩ by 1 for 1" {
		t.Fatalf("node 1 after the unbacked grant: %s", got)
	}
	if s.queued(1, 0, wire.KindOwnVal) || s.queued(1, 2, wire.KindOwnVal) {
		t.Fatal("node 1 VALed a grant it refused")
	}

	again := s.take(t, 1, 0, wire.KindOwnInv, nil).(*wire.OwnInv)
	if again.ReqID != first.ReqID || again.TS != first.TS {
		t.Fatalf("the retry is request %x at %v, want %x at %v", again.ReqID, again.TS, first.ReqID, first.TS)
	}
	c.nodes[0].eng.Handle(1, again)
	c.deliver(t, s, 1, 2, wire.KindOwnInv)
	c.deliver(t, s, 0, 1, wire.KindOwnAck)
	c.deliver(t, s, 2, 1, wire.KindOwnAck)
	if err := <-a; err != nil {
		t.Fatalf("node 1's acquisition: %v", err)
	}
	c.deliver(t, s, 1, 0, wire.KindOwnVal)
	c.deliver(t, s, 1, 2, wire.KindOwnVal)

	if got := c.ownerSide(1, obj); got != "owner Valid o_ts ⟨2,1⟩" {
		t.Errorf("node 1: %s", got)
	}
	if got := c.valueOf(1, obj); got != `v1 Valid "v1"` {
		t.Errorf("node 1 owns %s, want v1", got)
	}
	if owners := c.ownersOf(obj); len(owners) != 1 {
		t.Errorf("owners %v, want node 1 alone", owners)
	}
}

// TestUnbackedRecoveryRespIsRetried is TestUnbackedGrantIsRetried across an
// epoch change: the unbacked grant arrives in a replaying driver's RESP.
//
//  1. Node 1 acquires: it drives A = ⟨2,1⟩; A's INVs reach nodes 0 and 2,
//     whose ACKs arrive after the epoch change and are dropped.
//  2. Node 3 fails (epoch 2). Node 0 replays A; node 2's ACK to it is
//     replaced by unbacked's, and node 0 RESPs node 1 with it.
//  3. Node 1 refuses the RESP and retries the same request: node 1 re-INVs at
//     A, and the grant that follows is backed.
func TestUnbackedRecoveryRespIsRetried(t *testing.T) {
	const obj = wire.ObjectID(1)
	c, s := newScriptedCluster(t, 3)
	c.seedScripted(obj, 2, wire.BitmapOf(0, 1))

	// 1.
	a := c.acquire(1, obj)
	first := s.take(t, 1, 0, wire.KindOwnInv, nil).(*wire.OwnInv)
	c.nodes[0].eng.Handle(1, first)
	c.deliver(t, s, 1, 2, wire.KindOwnInv)

	// 2.
	c.epochChange(t, 3)
	c.deliver(t, s, 0, 1, wire.KindOwnAck) // epoch 1: dropped
	c.deliver(t, s, 2, 1, wire.KindOwnAck)
	c.deliver(t, s, 0, 1, wire.KindOwnInv)
	c.deliver(t, s, 1, 0, wire.KindOwnAck)
	c.deliver(t, s, 0, 2, wire.KindOwnInv)
	c.nodes[0].eng.Handle(2, unbacked(s.take(t, 2, 0, wire.KindOwnAck, nil)))

	// 3.
	c.deliver(t, s, 0, 1, wire.KindOwnResp)
	if got := c.ownerSide(1, obj); got != "reader Drive o_ts ⟨1,2⟩ pending ⟨2,1⟩ by 1 for 1" {
		t.Fatalf("node 1 after the unbacked RESP: %s", got)
	}
	if s.queued(1, 0, wire.KindOwnVal) || s.queued(1, 2, wire.KindOwnVal) {
		t.Fatal("node 1 VALed a grant it refused")
	}
	retry := func(m wire.Msg) bool { return !m.(*wire.OwnInv).Recovery }
	again := s.take(t, 1, 0, wire.KindOwnInv, retry).(*wire.OwnInv)
	if again.ReqID != first.ReqID || again.TS != first.TS {
		t.Fatalf("the retry is request %x at %v, want %x at %v", again.ReqID, again.TS, first.ReqID, first.TS)
	}
	c.nodes[0].eng.Handle(1, again)
	c.nodes[2].eng.Handle(1, s.take(t, 1, 2, wire.KindOwnInv, retry))
	c.deliver(t, s, 0, 1, wire.KindOwnAck)
	c.deliver(t, s, 2, 1, wire.KindOwnAck)
	if err := <-a; err != nil {
		t.Fatalf("node 1's acquisition: %v", err)
	}
	c.deliver(t, s, 1, 0, wire.KindOwnVal)
	c.deliver(t, s, 1, 2, wire.KindOwnVal)

	if got := c.ownerSide(1, obj); got != "owner Valid o_ts ⟨2,1⟩" {
		t.Errorf("node 1: %s", got)
	}
	if got := c.valueOf(1, obj); got != `v1 Valid "v1"` {
		t.Errorf("node 1 owns %s, want v1", got)
	}
	if owners := c.ownersOf(obj); len(owners) != 1 {
		t.Errorf("owners %v, want node 1 alone", owners)
	}
}

// TestPreJoinArbitrationIsReplayed: an arbitration minted in the epoch before
// a join, whose INVs the arbiters drop as stale, is replayed by the node that
// holds it as soon as it refuses a contender because of it. A join runs no
// arb-replay (a node's view-change hook reacts to removals only), and a
// contender's lower o_ts loses at that node, so nothing else completes it:
// every later request for the object was refused until its deadline.
//
// Three engines, all drivers; object 1 owned by node 2, readers 0 and 1.
//
//  1. Node 1 acquires: it drives A = ⟨2,1⟩ in epoch 1; A's INVs stay in flight.
//  2. Node 4 joins (epoch 2); A's INVs reach nodes 0 and 2 and are dropped.
//  3. Node 0 acquires: it drives B = ⟨2,0⟩ in epoch 2. Node 1 refuses B, A
//     being higher, and replays A in epoch 2.
//  4. Nodes 0 and 2 accept the replay and ACK node 1, which applies A and
//     VALs them: node 1 owns the object at ⟨2,1⟩.
func TestPreJoinArbitrationIsReplayed(t *testing.T) {
	const obj = wire.ObjectID(1)
	c, s := newScriptedCluster(t, 3)
	c.seedScripted(obj, 2, wire.BitmapOf(0, 1))

	// 1.
	a := c.acquire(1, obj)
	s.take(t, 1, 0, wire.KindOwnInv, nil) // dropped in step 2 either way
	s.take(t, 1, 2, wire.KindOwnInv, nil)

	// 2.
	if !c.mgr.Join(4) {
		t.Fatal("the join never committed")
	}

	// 3.
	c.acquire(0, obj)
	c.deliver(t, s, 0, 1, wire.KindOwnInv)
	if got := c.ownerSide(1, obj); got != "reader Drive o_ts ⟨1,2⟩ pending ⟨2,1⟩ by 1 for 1" {
		t.Fatalf("node 1 after refusing B: %s", got)
	}

	// 4.
	replay := func(m wire.Msg) bool { return m.(*wire.OwnInv).Recovery }
	for _, arbiter := range []wire.NodeID{0, 2} {
		c.nodes[arbiter].eng.Handle(1, s.take(t, 1, arbiter, wire.KindOwnInv, replay))
		c.deliver(t, s, arbiter, 1, wire.KindOwnAck)
	}
	if err := <-a; err != nil {
		t.Fatalf("node 1's acquisition: %v", err)
	}
	c.deliver(t, s, 1, 0, wire.KindOwnVal)
	c.deliver(t, s, 1, 2, wire.KindOwnVal)

	for id, want := range []string{
		"reader Valid o_ts ⟨2,1⟩",
		"owner Valid o_ts ⟨2,1⟩",
		"reader Valid o_ts ⟨2,1⟩",
	} {
		if got := c.ownerSide(wire.NodeID(id), obj); got != want {
			t.Errorf("node %d: %s, want %s", id, got, want)
		}
	}
	if owners := c.ownersOf(obj); len(owners) != 1 {
		t.Errorf("owners %v, want node 1 alone", owners)
	}
}

// TestSourceShipsOnlyACommittedValue: an owner ACKs a replayed INV with its
// value only once that value's reliable commit completed. A replay passes the
// owner's pending-commit refusal (the locally committed value is final), so
// the owner used to ship a value still in state Write — and its requester
// installed it Valid while the commit's followers still served the version
// before it: a read-only transaction there could read one object's new
// version beside another's old one.
//
// Three engines, all drivers; object 1 owned by node 2, reader 0, all at v1;
// node 1 holds nothing. Node 2 has locally committed v2 (Write).
//
//  1. Node 1 acquires a read: it drives A = ⟨2,1⟩; A's INVs are lost.
//  2. Node 3 fails (epoch 2); node 1 replays A.
//  3. Node 0 ACKs the replay. Node 2 accepts it, but does not ACK while v2 is
//     Write; once v2 is Valid it ACKs, shipping v2, and node 1 reads v2.
func TestSourceShipsOnlyACommittedValue(t *testing.T) {
	const obj = wire.ObjectID(1)
	c, s := newScriptedCluster(t, 3)
	c.seedScripted(obj, 2, wire.BitmapOf(0), 1)
	src, _ := c.nodes[2].st.Get(obj)
	src.Mu.Lock()
	src.StageLocked([]byte("v2"))
	src.Mu.Unlock()

	// 1.
	done := make(chan error, 1)
	go func() { done <- c.nodes[1].eng.AcquireRead(obj) }()
	s.take(t, 1, 0, wire.KindOwnInv, nil)
	s.take(t, 1, 2, wire.KindOwnInv, nil)

	// 2.
	c.epochChange(t, 3)

	// 3.
	c.deliver(t, s, 1, 0, wire.KindOwnInv)
	c.deliver(t, s, 0, 1, wire.KindOwnAck)
	c.deliver(t, s, 1, 2, wire.KindOwnInv)
	time.Sleep(20 * time.Millisecond)
	if s.queued(2, 1, wire.KindOwnAck) {
		t.Fatalf("node 2 ACKed while its value is %s", c.valueOf(2, obj))
	}
	src.Mu.Lock()
	src.ValidateLocked(2, store.TWrite)
	src.Mu.Unlock()
	c.deliver(t, s, 2, 1, wire.KindOwnAck)
	if err := <-done; err != nil {
		t.Fatalf("node 1's acquisition: %v", err)
	}
	if got := c.valueOf(1, obj); got != `v2 Valid "v2"` {
		t.Errorf("node 1 reads %s, want v2", got)
	}
}
