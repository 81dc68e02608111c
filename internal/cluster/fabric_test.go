package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"zeus/internal/dbapi"
	"zeus/internal/netsim"
	"zeus/internal/storage"
	"zeus/internal/storage/memstorage"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// everyFabric is the three fabrics a cluster can stand on, the simulated one
// lossy.
var everyFabric = []struct {
	name string
	kind FabricKind
}{
	{"mem", FabricMem},
	{"sim", FabricSim},
	{"tcp", FabricTCP},
}

func durableOn(kind FabricKind, nodes int) Options {
	opts := DefaultOptions(nodes)
	opts.Fabric = kind
	opts.Net = netsim.Config{Seed: 7, MaxLatency: 30 * time.Microsecond, LossProb: 0.02, InboxDepth: 1 << 14}
	opts.Storage = func(wire.NodeID) storage.Storage { return memstorage.New() }
	return opts
}

// TestKillRestartOnEveryFabric: crash-stop, restart, view-replica kill and
// graceful leave go through the fabric seam, so they work — the same way —
// whichever fabric the cluster stands on. No concurrent load: what is checked
// is that the fault is injected, the node comes back through the rejoin
// sequence with its durable state, and every node can write every object
// afterwards.
func TestKillRestartOnEveryFabric(t *testing.T) {
	const nodes, objects = 4, 8
	// write increments obj on node.
	write := func(t *testing.T, c *Cluster, node int, obj wire.ObjectID) {
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
	for _, f := range everyFabric {
		t.Run(f.name+"/kill-restart", func(t *testing.T) {
			opts := durableOn(f.kind, nodes)
			opts.Observability = true
			c := New(opts)
			defer c.Close()
			c.SeedRange(1, objects, u64c(0)) // object i+1 at node i%4
			ownedBy := func(node int) []wire.ObjectID {
				return []wire.ObjectID{wire.ObjectID(1 + node), wire.ObjectID(1 + node + nodes)}
			}
			for _, obj := range ownedBy(3) {
				write(t, c, 3, obj)
			}
			if !c.Node(3).WaitReplication(5 * time.Second) {
				t.Fatal("node 3's writes did not replicate")
			}
			if err := c.Node(3).SnapshotNow(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			before := c.fabric.Node(3)
			if err := c.Kill(3); err != nil {
				t.Fatal(err)
			}
			for node := 0; node < 3; node++ {
				for _, obj := range ownedBy(node) {
					write(t, c, node, obj)
				}
			}
			n3, err := c.Restart(3)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			if n3.Recovered() == 0 {
				t.Fatal("restarted node recovered nothing from its WAL")
			}
			if p := n3.ReclaimPending(); p != 0 {
				t.Fatalf("reclaim incomplete: %d objects pending", p)
			}
			// What the restarted node stands on: the endpoint its previous
			// incarnation had, except on TCP, where that one was closed and
			// the new listener has a new address.
			after := c.fabric.Node(3)
			if was, ok := before.(*transport.TCP); ok {
				if is := after.(*transport.TCP); is == was || is.Addr() == was.Addr() {
					t.Fatalf("restarted node listens on %s, the dead one's %s", is.Addr(), was.Addr())
				}
			} else if after != before {
				t.Fatalf("the fabric gave the restarted node a second endpoint (%p, the dead one had %p)", after, before)
			}
			// Every object moves to the restarted node and back out again.
			for obj := wire.ObjectID(1); obj <= objects; obj++ {
				write(t, c, 3, obj)
			}
			for obj := wire.ObjectID(1); obj <= objects; obj++ {
				write(t, c, int(obj)%3, obj)
			}
			if !c.WaitIdle(5 * time.Second) {
				t.Fatal("pipelines did not drain")
			}
			for obj := wire.ObjectID(1); obj <= objects; obj++ {
				// Seeded 0; one write by its first owner, then the two rounds.
				assertReplicasAgree(t, c, obj, u64c(3))
			}
			if n := unbacked(t, c); n != 0 {
				t.Errorf("%d grants refused as unbacked on a run with no concurrent load", n)
			}
		})
		t.Run(f.name+"/kill-view-leader", func(t *testing.T) {
			c := New(durableOn(f.kind, nodes))
			defer c.Close()
			c.SeedRange(1, objects, u64c(0))
			if err := c.KillViewReplica(0); err != nil { // ballot 0's leader
				t.Fatal(err)
			}
			// The data plane does not notice; a membership change needs the
			// surviving replicas to have taken over.
			write(t, c, 1, 1)
			if err := c.Kill(3); err != nil {
				t.Fatalf("kill after the view leader's crash: %v", err)
			}
			write(t, c, 0, 4) // node 3's object
			if !c.WaitIdle(5 * time.Second) {
				t.Fatal("pipelines did not drain")
			}
			assertReplicasAgree(t, c, 4, u64c(1))
		})
		t.Run(f.name+"/leave", func(t *testing.T) {
			c := New(durableOn(f.kind, nodes))
			defer c.Close()
			c.SeedRange(1, objects, u64c(0))
			write(t, c, 3, 4)
			if !c.Node(3).WaitReplication(5 * time.Second) {
				t.Fatal("node 3's write did not replicate")
			}
			if err := c.Leave(3); err != nil {
				t.Fatal(err)
			}
			if c.Live().Contains(3) {
				t.Fatal("left node still live")
			}
			write(t, c, 0, 4)
			if !c.WaitIdle(5 * time.Second) {
				t.Fatal("pipelines did not drain")
			}
			assertReplicasAgree(t, c, 4, u64c(2))
		})
	}
}

// assertReplicasAgree: obj has an owner, and every node that owner's replica
// set lists — the owner is the authority on the set and on the value — holds
// want at the owner's version, and no node outside the set holds a level. The
// replica-degree trim that follows a move runs in the background, so a look
// taken while its arbitration is in flight can find a dropped reader before
// its VAL: that one check is on the state the cluster settles in, within a
// second; every other check is on the first look.
func assertReplicasAgree(t *testing.T, c *Cluster, obj wire.ObjectID, want []byte) {
	t.Helper()
	owner, copies := lookAt(c, obj)
	if owner == wire.NoNode {
		t.Errorf("object %d has no owner", obj)
		return
	}
	own := copies[owner]
	if !bytes.Equal(own.data, want) {
		t.Errorf("object %d at its owner, node %d: value %d, want %d", obj, owner, fromU64c(own.data), fromU64c(want))
	}
	for id, cp := range copies {
		if own.reps.LevelOf(id) != wire.NonReplica && (cp.ver != own.ver || !bytes.Equal(cp.data, own.data)) {
			t.Errorf("object %d on node %d: version %d value %d, owner %d has version %d value %d",
				obj, id, cp.ver, fromU64c(cp.data), owner, own.ver, fromU64c(own.data))
		}
	}
	if own.reps.All().Count() < 2 {
		t.Errorf("object %d: owner %d's replica set %+v lists no other replica", obj, owner, own.reps)
	}
	var stale []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if stale = staleOutsideSet(c, obj); len(stale) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, s := range stale {
		t.Error(s)
	}
}

// replicaCopy is one node's copy of an object, read under its lock.
type replicaCopy struct {
	lvl  wire.AccessLevel
	ts   wire.OTS
	reps wire.ReplicaSet
	ver  uint64
	data []byte
}

// lookAt reads every live node's copy of obj and picks its owner: the Owner
// copy with the newest o_ts (NoNode when none holds Owner).
func lookAt(c *Cluster, obj wire.ObjectID) (owner wire.NodeID, copies map[wire.NodeID]replicaCopy) {
	copies = make(map[wire.NodeID]replicaCopy)
	owner = wire.NoNode
	for id := range c.Live().Each {
		o, ok := c.Node(int(id)).Store().Get(obj)
		if !ok {
			continue
		}
		o.Mu.Lock()
		cp := replicaCopy{o.LevelLocked(), o.OTSLocked(), o.ReplicasLocked(), o.TVersion(), append([]byte(nil), o.DataLocked()...)}
		o.Mu.Unlock()
		copies[id] = cp
		if cp.lvl == wire.Owner && (owner == wire.NoNode || copies[owner].ts.Less(cp.ts)) {
			owner = id
		}
	}
	return owner, copies
}

// staleOutsideSet returns, from one look at obj, each node outside its
// owner's replica set that still holds a level.
func staleOutsideSet(c *Cluster, obj wire.ObjectID) (stale []string) {
	owner, copies := lookAt(c, obj)
	if owner == wire.NoNode {
		return nil // reported by assertReplicasAgree's first look
	}
	own := copies[owner]
	for id, cp := range copies {
		if own.reps.LevelOf(id) == wire.NonReplica && cp.lvl != wire.NonReplica {
			stale = append(stale, fmt.Sprintf("object %d: node %d holds a stale %v copy (o_ts %v, version %d) outside owner %d's set %+v (o_ts %v)",
				obj, id, cp.lvl, cp.ts, cp.ver, owner, own.reps, own.ts))
		}
	}
	return stale
}
