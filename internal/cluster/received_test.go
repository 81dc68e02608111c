package cluster

import (
	"bytes"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"zeus/internal/dbapi"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// frozenHub is the hub with every node's handler wrapped: a message is
// marshalled before the handler runs and compared after it returned, and kept
// with its encoding, so that a write a router's shard goroutine makes later —
// after the handler that queued it returned — shows when the test compares
// every delivery once more at its end.
type frozenHub struct {
	*transport.Hub
	t *testing.T

	mu   sync.Mutex
	seen []delivery
	kind map[wire.Kind]int
}

// delivery is one message as a handler was given it.
type delivery struct {
	to  wire.NodeID
	m   wire.Msg
	enc []byte
}

func (f *frozenHub) Node(id wire.NodeID) transport.Transport {
	return frozenEndpoint{f.Hub.Node(id), f}
}

// frozenEndpoint is one node's hub endpoint under a frozenHub.
type frozenEndpoint struct {
	transport.Transport
	f *frozenHub
}

func (e frozenEndpoint) SetHandler(h transport.Handler) {
	self := e.Self()
	e.Transport.SetHandler(func(from wire.NodeID, m wire.Msg) {
		d := delivery{to: self, m: m, enc: wire.Marshal(m)}
		h(from, m)
		e.f.check(d, "its handler")
		e.f.mu.Lock()
		e.f.seen = append(e.f.seen, d)
		e.f.kind[m.Kind()]++
		e.f.mu.Unlock()
	})
}

// check fails the test when d's message no longer encodes as it did when it
// was delivered.
func (f *frozenHub) check(d delivery, by string) {
	if now := wire.Marshal(d.m); !bytes.Equal(now, d.enc) {
		got, _ := wire.Unmarshal(now)
		was, _ := wire.Unmarshal(d.enc)
		f.t.Errorf("%v to node %d was written after %s got it: %+v, delivered as %+v", d.m.Kind(), d.to, by, got, was)
	}
}

// TestHandlersNeverWriteWhatTheyReceive: the hub hands a handler the sender's
// own record, so a handler that wrote a message it was given would write the
// sender's — and every other destination's — copy too. A hub cluster runs
// local writes, ownership moves back and forth between two nodes, and one
// node leaving and rejoining (view-service and directory kinds), and no
// message any node was given encodes differently afterwards.
func TestHandlersNeverWriteWhatTheyReceive(t *testing.T) {
	const nodes, objects, moves = 4, 8, 200
	fab := &frozenHub{Hub: transport.NewHub(), t: t, kind: map[wire.Kind]int{}}
	c := newOn(durableOn(FabricMem, nodes), fab)
	defer c.Close()
	if err := c.SeedRange(1, objects, u64c(0)); err != nil { // object i+1 at node i%4
		t.Fatal(err)
	}
	write := func(node int, obj wire.ObjectID) {
		t.Helper()
		if err := dbapi.Run(c.Node(node).DB(), 0, func(tx dbapi.Txn) error {
			v, err := tx.Get(uint64(obj))
			if err != nil {
				return err
			}
			return tx.Set(uint64(obj), u64c(fromU64c(v)+1))
		}); err != nil {
			t.Fatalf("node %d writing object %d: %v", node, obj, err)
		}
	}
	for i := 0; i < 100; i++ {
		write(i%nodes, wire.ObjectID(1+i%objects))
	}
	for i := 0; i < moves; i++ {
		obj := wire.ObjectID(1 + i%objects)
		if err := c.Node((i/objects + 1) % 2).OwnershipEngine().AcquireOwnership(obj); err != nil {
			t.Fatalf("move %d of object %d: %v", i, obj, err)
		}
	}
	if err := c.Leave(3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(3); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	for obj := wire.ObjectID(1); obj <= objects; obj++ {
		write(3, obj)
	}
	if !c.WaitIdle(5 * time.Second) {
		t.Fatal("pipelines did not drain")
	}

	fab.mu.Lock()
	seen := slices.Clone(fab.seen) // heartbeats keep arriving
	kinds := maps.Clone(fab.kind)
	fab.mu.Unlock()
	for _, d := range seen {
		fab.check(d, "the end of the test")
	}
	for _, k := range []wire.Kind{
		wire.KindCommitInv, wire.KindCommitAck, wire.KindCommitVal,
		wire.KindOwnReq, wire.KindOwnInv, wire.KindOwnAck, wire.KindOwnVal,
		wire.KindVSPropose, wire.KindVSAccept, wire.KindVSCommit, wire.KindVSLease, wire.KindVSQuery,
		wire.KindDirPull, wire.KindDirState,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v was delivered: the run does not reach what it checks", k)
		}
	}
	t.Logf("%d deliveries checked: %v", len(seen), kinds)
}
