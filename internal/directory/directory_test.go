package directory

import (
	"testing"
	"time"

	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// harness wires N directory services over a hub that also carries the
// view-service ensemble replicating the placement, and the client the
// services' agents hang off.
type harness struct {
	vcfg viewsvc.Config
	mgr  *viewsvc.Client
	hub  *transport.Hub
	svcs []*Service
	sts  []*store.Store
}

func newHarness(t *testing.T, nodes, dirShards int) *harness {
	t.Helper()
	var members wire.Bitmap
	for i := 0; i < nodes; i++ {
		members = members.Add(wire.NodeID(i))
	}
	h := &harness{
		vcfg: viewsvc.Config{Lease: 2 * time.Millisecond, DirShards: dirShards},
		hub:  transport.NewHub(),
	}
	ids := viewsvc.ReplicaIDs(3)
	trs := make([]transport.Transport, len(ids))
	for i, id := range ids {
		trs[i] = h.hub.Node(id)
	}
	ens := viewsvc.StartEnsemble(h.vcfg, ids, trs, members)
	h.mgr = viewsvc.NewClient(h.vcfg, h.hub.Node(viewsvc.ClientID), ids, members, nil)
	t.Cleanup(func() {
		h.mgr.Close()
		ens.Close()
	})
	for i := 0; i < nodes; i++ {
		h.addNode(wire.NodeID(i), h.mgr.Agent(wire.NodeID(i)))
	}
	return h
}

// addNode starts the directory service of node id on the harness hub.
func (h *harness) addNode(id wire.NodeID, agent *viewsvc.Agent) {
	st := store.New()
	tr := h.hub.Node(id)
	svc := NewService(id, st, tr, agent)
	r := transport.NewRouter()
	svc.Register(r)
	tr.SetHandler(r.Dispatch)
	h.svcs = append(h.svcs, svc)
	h.sts = append(h.sts, st)
}

func TestServiceResolutionAgreesAcrossNodes(t *testing.T) {
	h := newHarness(t, 4, 8)
	for obj := wire.ObjectID(0); obj < 64; obj++ {
		want := h.svcs[0].DriversFor(obj)
		if want.Count() != 3 {
			t.Fatalf("obj %d: %d drivers, want 3", obj, want.Count())
		}
		for i, svc := range h.svcs {
			if got := svc.DriversFor(obj); got != want {
				t.Fatalf("obj %d: node %d resolves %v, node 0 resolves %v", obj, i, got, want)
			}
			if svc.DrivesShard(wire.NodeID(i), obj) != want.Contains(wire.NodeID(i)) {
				t.Fatalf("obj %d: node %d DrivesShard disagrees with DriversFor", obj, i)
			}
		}
	}
	if h.svcs[0].Shards() != 8 {
		t.Fatalf("replicated shard count = %d, want 8", h.svcs[0].Shards())
	}
}

// TestServiceSyncsNewDriverShards kills a directory driver and checks that
// the replacement driver pulls the shard's metadata from the survivors.
func TestServiceSyncsNewDriverShards(t *testing.T) {
	h := newHarness(t, 4, 8)

	// Pick an object, its driver set {a,b,c} and the spare node d.
	obj := wire.ObjectID(1)
	drivers := h.svcs[0].DriversFor(obj)
	var spare wire.NodeID = wire.NoNode
	for i := 0; i < 4; i++ {
		if !drivers.Contains(wire.NodeID(i)) {
			spare = wire.NodeID(i)
		}
	}
	if spare == wire.NoNode {
		t.Fatal("no spare node; degree must be 3 of 4")
	}

	// Seed the directory entry at the current drivers only.
	reps := wire.ReplicaSet{Owner: spare, Readers: wire.BitmapOf(spare).Remove(spare)}
	for _, d := range drivers.Nodes() {
		o, _ := h.sts[d].GetOrCreate(obj)
		o.Mu.Lock()
		o.AdoptEntryLocked(wire.OTS{Ver: 5, Node: spare}, reps)
		o.Mu.Unlock()
	}

	// Kill one driver; the spare must rendezvous into the shard (3 live
	// nodes remain, degree 3 ⇒ every shard is driven by all survivors).
	victim := drivers.Nodes()[0]
	epoch := h.mgr.View().Epoch
	h.mgr.Fail(victim)
	if !h.mgr.WaitEpoch(epoch+1, 5*time.Second) {
		t.Fatal("view change timed out")
	}

	newDrivers := h.svcs[spare].DriversFor(obj)
	if newDrivers.Contains(victim) || !newDrivers.Contains(spare) {
		t.Fatalf("placement after kill: %v (victim %d, spare %d)", newDrivers, victim, spare)
	}

	// The spare pulls the entry from the surviving drivers.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if o, ok := h.sts[spare].Get(obj); ok {
			o.Mu.Lock()
			ts, rs := o.OTSLocked(), o.ReplicasLocked()
			o.Mu.Unlock()
			if ts == (wire.OTS{Ver: 5, Node: spare}) && rs.Owner == spare {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("replacement driver never synced the shard entry")
		}
		time.Sleep(time.Millisecond)
	}
	if !h.svcs[spare].Ready(obj) {
		t.Fatal("shard still not ready after sync")
	}
	if st := h.svcs[spare].Stats(); st.Pulls == 0 || st.Synced == 0 {
		t.Fatalf("sync stats: %+v", st)
	}
}

// TestJoinerPullsShardMetadata is the zeusd -join shape: the joining process
// has its own view-service client, seeded with no members, and builds its
// directory service before first contact — so the placement it was
// constructed with has empty driver sets. When its join commits it must
// still pull the shards it newly drives from the drivers of the placement
// that was in force before the join.
func TestJoinerPullsShardMetadata(t *testing.T) {
	h := newHarness(t, 3, 8)
	const joiner = wire.NodeID(3)

	// Seed one directory entry per object at the founding drivers (all three
	// founders drive every shard at degree 3).
	const objs = 64
	want := wire.OTS{Ver: 5, Node: 1}
	for obj := wire.ObjectID(0); obj < objs; obj++ {
		for _, st := range h.sts {
			o, _ := st.GetOrCreate(obj)
			o.Mu.Lock()
			o.AdoptEntryLocked(want, wire.ReplicaSet{Owner: 1})
			o.Mu.Unlock()
		}
	}

	cli := viewsvc.NewClient(h.vcfg, h.hub.Node(viewsvc.ClientID-1), viewsvc.ReplicaIDs(3), 0, nil)
	t.Cleanup(cli.Close)
	h.addNode(joiner, cli.Agent(joiner))
	svc, st := h.svcs[joiner], h.sts[joiner]
	deadline := time.Now().Add(5 * time.Second)
	for !cli.Heard() {
		if time.Now().After(deadline) {
			t.Fatal("joiner never heard from the ensemble")
		}
		cli.WaitEpoch(2, 10*time.Millisecond)
	}
	if !cli.Join(joiner) {
		t.Fatal("join did not commit")
	}

	var driven []wire.ObjectID
	for obj := wire.ObjectID(0); obj < objs; obj++ {
		if svc.DrivesShard(joiner, obj) {
			driven = append(driven, obj)
		}
	}
	if len(driven) == 0 {
		t.Fatal("joiner ranked into no shard; pick another shard count")
	}
	for _, obj := range driven {
		for {
			if o, ok := st.Get(obj); ok {
				o.Mu.Lock()
				ts, owner := o.OTSLocked(), o.ReplicasLocked().Owner
				o.Mu.Unlock()
				if ts == want && owner == 1 {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("joiner never synced the entry of obj %d (stats %+v)", obj, svc.Stats())
			}
			time.Sleep(time.Millisecond)
		}
		if !svc.Ready(obj) {
			t.Fatalf("obj %d: shard not ready after sync", obj)
		}
	}
	if stats := svc.Stats(); stats.Pulls == 0 || stats.Synced == 0 || stats.ForcedReady != 0 {
		t.Fatalf("sync stats: %+v", stats)
	}
}

// TestSuspectGatingUntilArbitrationOutcome pins the split-brain guard: a
// snapshot entry flagged with an in-flight arbitration makes the new driver
// refuse to drive that object (Ready=false) until the local entry shows the
// outcome — the arbitration's replay arriving (Pending set) or its
// completion (o_ts advancing past the snapshot's).
func TestSuspectGatingUntilArbitrationOutcome(t *testing.T) {
	h := newHarness(t, 4, 4)
	svc, st := h.svcs[0], h.sts[0]
	obj := wire.ObjectID(21)
	sh := uint32(svc.ShardOf(obj))

	svc.Handle(1, &wire.DirState{Shard: sh, From: 1, Entries: []wire.DirEntry{
		{Obj: obj, TS: wire.OTS{Ver: 9, Node: 3}, Replicas: wire.ReplicaSet{Owner: 3}, Pending: true},
	}})
	if svc.Ready(obj) {
		t.Fatal("flagged object must not be driven before the outcome is visible")
	}
	if st2 := svc.Stats(); st2.Suspect != 1 {
		t.Fatalf("suspect count = %d", st2.Suspect)
	}
	// Unrelated objects in the same shard stay drivable.
	other := obj
	for cand := wire.ObjectID(1); cand < 200; cand++ {
		if uint32(svc.ShardOf(cand)) == sh && cand != obj {
			other = cand
			break
		}
	}
	if other != obj && !svc.Ready(other) {
		t.Fatal("suspicion must be per object, not per shard")
	}

	// The arbitration's completion becomes visible: o_ts advances.
	o, _ := st.GetOrCreate(obj)
	o.Mu.Lock()
	o.GrantLocked(0, wire.OTS{Ver: 10, Node: 2}, wire.ReplicaSet{Owner: 2}, store.Shipped{})
	o.Mu.Unlock()
	if !svc.Ready(obj) {
		t.Fatal("suspicion must lift once the entry advanced past the snapshot")
	}
	if st2 := svc.Stats(); st2.Suspect != 0 {
		t.Fatalf("suspect count after clear = %d", st2.Suspect)
	}

	// A pending arbitration arriving locally also lifts the gate (the
	// ownership engine then handles the object natively).
	obj2 := wire.ObjectID(22)
	svc.Handle(1, &wire.DirState{Shard: uint32(svc.ShardOf(obj2)), From: 1, Entries: []wire.DirEntry{
		{Obj: obj2, TS: wire.OTS{Ver: 5, Node: 1}, Replicas: wire.ReplicaSet{Owner: 1}, Pending: true},
	}})
	if svc.Ready(obj2) {
		t.Fatal("second flagged object must start suspect")
	}
	o2, _ := st.GetOrCreate(obj2)
	o2.Mu.Lock()
	o2.InvalidateLocked(store.PendingOwn{ReqID: 7, TS: wire.OTS{Ver: 6, Node: 0}}, 0)
	o2.Mu.Unlock()
	if !svc.Ready(obj2) {
		t.Fatal("suspicion must lift once the pending arbitration reached us")
	}
}

// TestServiceSnapshotNeverRegresses pins the install guard: an entry never
// overwrites a newer timestamp or a pending arbitration.
func TestServiceSnapshotNeverRegresses(t *testing.T) {
	h := newHarness(t, 4, 4)
	svc, st := h.svcs[0], h.sts[0]

	o, _ := st.GetOrCreate(9)
	o.Mu.Lock()
	o.GrantLocked(0, wire.OTS{Ver: 10, Node: 2}, wire.ReplicaSet{Owner: 2}, store.Shipped{})
	o.Mu.Unlock()

	svc.Handle(1, &wire.DirState{Shard: uint32(svc.ShardOf(9)), From: 1, Entries: []wire.DirEntry{
		{Obj: 9, TS: wire.OTS{Ver: 4, Node: 1}, Replicas: wire.ReplicaSet{Owner: 1}},
	}})
	o.Mu.Lock()
	owner := o.ReplicasLocked().Owner
	o.Mu.Unlock()
	if owner != 2 {
		t.Fatal("stale snapshot entry overwrote a newer directory entry")
	}

	o.Mu.Lock()
	o.InvalidateLocked(store.PendingOwn{ReqID: 1, TS: wire.OTS{Ver: 11, Node: 0}}, 0)
	o.Mu.Unlock()
	svc.Handle(1, &wire.DirState{Shard: uint32(svc.ShardOf(9)), From: 1, Entries: []wire.DirEntry{
		{Obj: 9, TS: wire.OTS{Ver: 20, Node: 1}, Replicas: wire.ReplicaSet{Owner: 1}},
	}})
	o.Mu.Lock()
	owner = o.ReplicasLocked().Owner
	o.Mu.Unlock()
	if owner != 2 {
		t.Fatal("snapshot entry overwrote a pending arbitration")
	}
}
