package cluster

import (
	"sync"
	"testing"
	"time"

	"zeus/internal/core"
	"zeus/internal/dbapi"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// heldHub is the hub with one kind of delivery held back: while holding, a
// message that held matches is kept instead of handed to its node's handler,
// until release hands over what was kept, in order.
type heldHub struct {
	*transport.Hub
	held func(to wire.NodeID, m wire.Msg) bool

	mu      sync.Mutex
	holding bool
	kept    []func()
}

func (f *heldHub) Node(id wire.NodeID) transport.Transport {
	return heldEndpoint{f.Hub.Node(id), f}
}

func (f *heldHub) hold() {
	f.mu.Lock()
	f.holding = true
	f.mu.Unlock()
}

func (f *heldHub) release() {
	f.mu.Lock()
	kept := f.kept
	f.holding, f.kept = false, nil
	f.mu.Unlock()
	for _, deliver := range kept {
		deliver()
	}
}

// heldEndpoint is one node's hub endpoint under a heldHub.
type heldEndpoint struct {
	transport.Transport
	f *heldHub
}

func (e heldEndpoint) SetHandler(h transport.Handler) {
	self := e.Self()
	e.Transport.SetHandler(func(from wire.NodeID, m wire.Msg) {
		e.f.mu.Lock()
		if e.f.holding && e.f.held(self, m) {
			e.f.kept = append(e.f.kept, func() { h(from, m) })
			e.f.mu.Unlock()
			return
		}
		e.f.mu.Unlock()
		h(from, m)
	})
}

// TestALeavingReplicaServesNothing: a reader that ACKs an arbitration
// dropping it from the replica set stops serving its replica there and then,
// not at the VAL. The owner applies the drop first and its next commit skips
// the reader, so until the VAL arrives the replica is a version the rest of
// the deployment has moved past. A read-only transaction that had read it
// before the drop, and then reads a second object that commit wrote, used to
// validate both and commit a torn snapshot.
//
// Three nodes; objects A and B owned by node 0, A read by node 1 and B by
// node 2, both 0. A read-only transaction on node 1 reads A; node 0 drops node
// 1 from A's replicas (node 1's VAL held back) and writes A = B = 1, a commit
// node 1 follows for neither; the transaction reads B, which makes node 1 B's
// reader at B = 1, and commits. It must not see A = 0 with B = 1.
func TestALeavingReplicaServesNothing(t *testing.T) {
	const objA, objB = wire.ObjectID(1), wire.ObjectID(2)
	fab := &heldHub{Hub: transport.NewHub(), held: func(to wire.NodeID, m wire.Msg) bool {
		v, ok := m.(*wire.OwnVal)
		return ok && to == 1 && v.Obj == objA
	}}
	c := newOn(DefaultOptions(3), fab)
	defer c.Close()
	defer fab.release()
	for obj, reader := range map[wire.ObjectID]wire.NodeID{objA: 1, objB: 2} {
		if err := c.Seed(obj, 0, wire.BitmapOf(reader), u64c(0)); err != nil {
			t.Fatal(err)
		}
	}

	ro := c.Node(1).BeginRO()
	av, err := ro.Get(uint64(objA))
	if err != nil {
		t.Fatalf("node 1 reading A: %v", err)
	}

	fab.hold()
	if err := c.Node(0).OwnershipEngine().DropReader(objA, 1); err != nil {
		t.Fatalf("dropping node 1 from A: %v", err)
	}
	var w *core.Tx
	if err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
		w = tx.(*core.Tx)
		if err := tx.Set(uint64(objA), u64c(1)); err != nil {
			return err
		}
		return tx.Set(uint64(objB), u64c(1))
	}); err != nil {
		t.Fatalf("node 0 writing A and B: %v", err)
	}
	select {
	case <-w.Durable():
	case <-time.After(5 * time.Second):
		t.Fatal("the write's reliable commit did not complete")
	}
	bv, err := ro.Get(uint64(objB))
	if err == nil {
		err = ro.Commit()
	}
	if err == nil {
		t.Fatalf("a read-only transaction on node 1 committed A = %d, B = %d", fromU64c(av), fromU64c(bv))
	}
	if err != dbapi.ErrConflict {
		t.Fatalf("the torn read-only transaction failed with %v, want a conflict", err)
	}
}
