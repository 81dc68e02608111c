package core_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"zeus/internal/cluster"
	"zeus/internal/commit"
	"zeus/internal/core"
	"zeus/internal/dbapi"
	"zeus/internal/netsim"
	"zeus/internal/ownership"
	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

func newCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.DefaultOptions(n))
	t.Cleanup(c.Close)
	return c
}

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func fromU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// TestWorkersFitTheirPipelineNames: a commit pipeline is named by a one-byte
// wire.Worker, so a node runs at most core.MaxWorkers workers — the last of
// them commits like the first — and NewNode refuses one more rather than let
// worker 256 share worker 0's pipeline.
func TestWorkersFitTheirPipelineNames(t *testing.T) {
	func() {
		mgr := viewsvc.NewSelfHosted(viewsvc.Config{}, wire.BitmapOf(0))
		defer mgr.Close()
		defer func() {
			if recover() == nil {
				t.Errorf("NewNode took %d workers", core.MaxWorkers+1)
			}
		}()
		n := core.NewNode(0, transport.NewHub().Node(0), mgr.Agent(0), nil, nil, core.Config{Workers: core.MaxWorkers + 1})
		n.Close()
	}()
	opts := cluster.DefaultOptions(3)
	opts.Workers = core.MaxWorkers
	c := cluster.New(opts)
	defer c.Close()
	c.SeedAt(1, 0, u64(0))
	for _, w := range []int{0, core.MaxWorkers - 1} {
		tx := c.Node(0).BeginOn(w)
		if err := tx.Set(1, u64(uint64(w)+1)); err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		select {
		case <-tx.Durable():
		case <-time.After(5 * time.Second):
			t.Fatalf("worker %d: the write never became durable", w)
		}
	}
}

func TestWriteThenReadLocal(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(1, 0, []byte("init"))
	tx := c.Node(0).BeginOn(0)
	got, err := tx.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "init" {
		t.Fatalf("got %q", got)
	}
	if err := tx.Set(1, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes inside the transaction.
	if got, _ := tx.Get(1); string(got) != "updated" {
		t.Fatalf("read-own-write: %q", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Committed value visible to a follow-up transaction immediately
	// (pipelining: no wait for replication).
	tx2 := c.Node(0).BeginOn(0)
	if got, _ := tx2.Get(1); string(got) != "updated" {
		t.Fatalf("after commit: %q", got)
	}
	tx2.Abort()
}

func TestReplicationReachesReaders(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(2, 0, []byte("v0"))
	tx := c.Node(0).BeginOn(0)
	if err := tx.Set(2, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tx.Durable():
	case <-time.After(2 * time.Second):
		t.Fatal("replication never completed")
	}
	// Readers (nodes 1 and 2 by default placement) serve the new value via
	// local read-only transactions (§5.3). The R-VAL that re-validates
	// followers is asynchronous, so retry on conflict like a real client.
	for _, i := range []int{1, 2} {
		var got []byte
		err := dbapi.RunRO(c.Node(i).DB(), 0, func(tx dbapi.Txn) error {
			var err error
			got, err = tx.Get(2)
			return err
		})
		if err != nil {
			t.Fatalf("node %d RO: %v", i, err)
		}
		if string(got) != "v1" {
			t.Fatalf("node %d read %q", i, got)
		}
	}
}

func TestRemoteWriteMigratesOwnershipOnce(t *testing.T) {
	c := newCluster(t, 4)
	c.SeedAt(3, 0, []byte("x"))
	n3 := c.Node(3)
	// First write from node 3: invokes the ownership protocol.
	if err := dbapi.Run(n3.DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(3, []byte("first"))
	}); err != nil {
		t.Fatal(err)
	}
	// The migration made node 3 a fourth replica, and replica trimming issues
	// one background request to drop a reader: let it settle, so that what is
	// counted from here on is transaction-driven.
	o, _ := n3.Store().Get(3)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		o.Mu.Lock()
		replicas := o.ReplicasLocked().All().Count()
		o.Mu.Unlock()
		if replicas == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica set still has %d members", replicas)
		}
	}
	reqsAfterFirst := n3.OwnershipEngine().Stats().Requests
	if reqsAfterFirst == 0 {
		t.Fatal("first remote write should invoke ownership")
	}
	// Subsequent writes are fully local: no new ownership requests (§3.2).
	for i := 0; i < 10; i++ {
		if err := dbapi.Run(n3.DB(), 0, func(tx dbapi.Txn) error {
			return tx.Set(3, []byte("again"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := n3.OwnershipEngine().Stats().Requests; got != reqsAfterFirst {
		t.Fatalf("locality broken: %d extra ownership requests", got-reqsAfterFirst)
	}
}

func TestMultiObjectTransactionColocates(t *testing.T) {
	c := newCluster(t, 4)
	c.SeedAt(10, 0, u64(100)) // "phone" at node 0
	c.SeedAt(11, 1, u64(200)) // "base station" at node 1
	// A handover-style transaction on node 3 touches both: both migrate.
	err := dbapi.Run(c.Node(3).DB(), 0, func(tx dbapi.Txn) error {
		a, err := tx.Get(10)
		if err != nil {
			return err
		}
		b, err := tx.Get(11)
		if err != nil {
			return err
		}
		if err := tx.Set(10, u64(fromU64(a)-10)); err != nil {
			return err
		}
		return tx.Set(11, u64(fromU64(b)+10))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []wire.ObjectID{10, 11} {
		o, ok := c.Node(3).Store().Get(obj)
		if !ok {
			t.Fatalf("obj %d missing at node 3", obj)
		}
		o.Mu.Lock()
		lvl := o.LevelLocked()
		o.Mu.Unlock()
		if lvl != wire.Owner {
			t.Fatalf("obj %d level %v at node 3", obj, lvl)
		}
	}
	var a, b []byte
	if err := dbapi.RunRO(c.Node(3).DB(), 0, func(tx dbapi.Txn) error {
		var err error
		if a, err = tx.Get(10); err != nil {
			return err
		}
		b, err = tx.Get(11)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if fromU64(a) != 90 || fromU64(b) != 210 {
		t.Fatalf("values %d %d", fromU64(a), fromU64(b))
	}
}

func TestLocalWorkerContentionAborts(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(20, 0, []byte("c"))
	n := c.Node(0)
	tx1 := n.BeginOn(0)
	if err := tx1.Set(20, []byte("w0")); err != nil {
		t.Fatal(err)
	}
	// Worker 1 conflicts on the local ownership.
	tx2 := n.BeginOn(1)
	if err := tx2.Set(20, []byte("w1")); !errors.Is(err, dbapi.ErrConflict) {
		t.Fatalf("expected local conflict, got %v", err)
	}
	tx2.Abort()
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// After commit the object is free again.
	tx3 := n.BeginOn(1)
	if err := tx3.Set(20, []byte("w1")); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestOpacityConsistentSnapshot(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(30, 0, u64(1))
	c.SeedAt(31, 0, u64(1))
	n := c.Node(0)
	tx := n.BeginOn(0)
	if _, err := tx.Get(30); err != nil {
		t.Fatal(err)
	}
	// A concurrent transaction on another worker changes obj 30.
	other := n.BeginOn(1)
	if err := other.Set(30, u64(2)); err != nil {
		t.Fatal(err)
	}
	if err := other.Commit(); err != nil {
		t.Fatal(err)
	}
	// The next read of tx must fail the snapshot check (opacity, §6.2):
	// it can never observe 30=1 and 31 after the other commit.
	_, err := tx.Get(31)
	if !errors.Is(err, dbapi.ErrConflict) {
		t.Fatalf("expected opacity conflict, got %v", err)
	}
	tx.Abort()
}

func TestReadOnlyAbortsOnConcurrentWrite(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(40, 0, u64(1))
	n := c.Node(0)
	ro := n.BeginRO()
	if _, err := ro.Get(40); err != nil {
		t.Fatal(err)
	}
	w := n.BeginOn(2)
	if err := w.Set(40, u64(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ro.Commit(); !errors.Is(err, dbapi.ErrConflict) {
		t.Fatalf("RO commit after concurrent write: %v", err)
	}
}

func TestSerializableCounterAcrossNodes(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(50, 0, u64(0))
	const perNode = 30
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db := c.Node(i).DB()
			for k := 0; k < perNode; k++ {
				err := dbapi.Run(db, i, func(tx dbapi.Txn) error {
					v, err := tx.Get(50)
					if err != nil {
						return err
					}
					return tx.Set(50, u64(fromU64(v)+1))
				})
				if err != nil {
					t.Errorf("node %d inc %d: %v", i, k, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Serializability: no increment may be lost.
	var final uint64
	for i := 0; i < 3; i++ {
		o, ok := c.Node(i).Store().Get(50)
		if !ok {
			continue
		}
		o.Mu.Lock()
		if o.LevelLocked() == wire.Owner {
			final = fromU64(o.DataLocked())
		}
		o.Mu.Unlock()
	}
	if final != 3*perNode {
		t.Fatalf("lost updates: counter = %d, want %d", final, 3*perNode)
	}
}

func TestOwnerDeathTakeoverPreservesData(t *testing.T) {
	c := newCluster(t, 4)
	c.SeedAt(60, 0, []byte("precious"))
	// Write once so there is real replicated state.
	if err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(60, []byte("precious-v2"))
	}); err != nil {
		t.Fatal(err)
	}
	if !c.Node(0).WaitReplication(2 * time.Second) {
		t.Fatal("replication stalled")
	}
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	// Node 3 (non-replica, directory is 0..2) takes over on next write.
	err := dbapi.Run(c.Node(3).DB(), 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(60)
		if err != nil {
			return err
		}
		if string(v) != "precious-v2" {
			return fmt.Errorf("takeover read %q", v)
		}
		return tx.Set(60, []byte("precious-v3"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateAndDeleteObject(t *testing.T) {
	c := newCluster(t, 3)
	n := c.Node(1)
	if err := n.CreateObject(70, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	var v []byte
	if err := dbapi.RunRO(n.DB(), 0, func(tx dbapi.Txn) error {
		var err error
		v, err = tx.Get(70)
		return err
	}); err != nil || string(v) != "fresh" {
		t.Fatalf("get after create: %q %v", v, err)
	}
	if err := n.DeleteObject(70); err != nil {
		t.Fatal(err)
	}
	// Writes to the deleted object fail permanently.
	werr := dbapi.Run(c.Node(2).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(70, []byte("zombie"))
	})
	if !errors.Is(werr, ownership.ErrUnknownObject) {
		t.Fatalf("post-delete write: %v", werr)
	}
}

// TestDefaultReadersFollowTheOwner: the degree-1 live nodes after the owner
// in id order, wrapping; a dead owner starts the walk at the lowest live id.
func TestDefaultReadersFollowTheOwner(t *testing.T) {
	five := wire.BitmapOf(0, 1, 2, 3, 4)
	for _, tc := range []struct {
		live   wire.Bitmap
		owner  wire.NodeID
		degree int
		want   wire.Bitmap
	}{
		{five, 0, 3, wire.BitmapOf(1, 2)},
		{five, 3, 3, wire.BitmapOf(4, 0)},
		{five, 4, 3, wire.BitmapOf(0, 1)},
		{five, 9, 3, wire.BitmapOf(0, 1)},
		{five, 2, 1, 0},
		{wire.BitmapOf(0, 2, 4), 2, 5, wire.BitmapOf(0, 4)},
		{wire.BitmapOf(0, 1, 3, 4), 2, 3, wire.BitmapOf(0, 1)},
	} {
		if got := core.DefaultReaders(tc.live, tc.owner, tc.degree); got != tc.want {
			t.Errorf("live %v, owner %d, degree %d: readers %v, want %v", tc.live, tc.owner, tc.degree, got, tc.want)
		}
	}
	if a := testing.AllocsPerRun(100, func() { core.DefaultReaders(five, 3, 3) }); a != 0 {
		t.Errorf("DefaultReaders allocates %v times; a cluster's bulk seeding calls it once an object", a)
	}
}

func TestUnknownObjectError(t *testing.T) {
	c := newCluster(t, 3)
	err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(9999, []byte("nope"))
	})
	if !errors.Is(err, ownership.ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplicaTrimRestoresDegree(t *testing.T) {
	c := newCluster(t, 5)
	c.SeedAt(80, 0, []byte("t")) // replicas {0,1,2}
	// Node 4 (non-replica) takes ownership: replicas grow to 4, then the
	// trim drops a reader out of the critical path (§6.2).
	if err := dbapi.Run(c.Node(4).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(80, []byte("t2"))
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		o, ok := c.Node(4).Store().Get(80)
		if ok {
			o.Mu.Lock()
			count := o.ReplicasLocked().All().Count()
			lvl := o.LevelLocked()
			o.Mu.Unlock()
			if lvl == wire.Owner && count == 3 {
				return
			}
		}
		if time.Now().After(deadline) {
			o.Mu.Lock()
			defer o.Mu.Unlock()
			t.Fatalf("replicas never trimmed: %v", o.ReplicasLocked())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadOnlyNoNetworkTraffic: read-only transactions on a reader are local
// (§5.3) — no ownership request is issued and nothing is replicated anywhere.
// The engines' own counters say so; the fabric's message total would also
// count the view service's lease renewals and heartbeats.
func TestReadOnlyNoNetworkTraffic(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(90, 0, []byte("quiet"))
	if !c.WaitIdle(2 * time.Second) {
		t.Fatal("cluster not idle")
	}
	type engines struct {
		own ownership.Stats
		cmt commit.Stats
	}
	stats := func() (s [3]engines) {
		for i := range s {
			s[i] = engines{c.Node(i).OwnershipEngine().Stats(), c.Node(i).CommitEngine().Stats()}
		}
		return s
	}
	before := stats()
	for i := 0; i < 100; i++ {
		ro := c.Node(1).BeginRO()
		if _, err := ro.Get(90); err != nil {
			t.Fatal(err)
		}
		if err := ro.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if after := stats(); after != before {
		t.Fatalf("read-only transactions moved protocol counters:\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestPipelinedCommitsDoNotBlock(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(95, 0, []byte("p"))
	n := c.Node(0)
	start := time.Now()
	var last *struct{ d <-chan struct{} }
	for i := 0; i < 200; i++ {
		tx := n.BeginOn(0)
		if err := tx.Set(95, u64(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		last = &struct{ d <-chan struct{} }{tx.Durable()}
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("200 pipelined commits took %v", e)
	}
	select {
	case <-last.d:
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline never drained")
	}
}

func TestClusterOverLossySimulatedNetwork(t *testing.T) {
	opts := cluster.DefaultOptions(3)
	opts.Fabric = cluster.FabricSim
	opts.Net = netsim.Config{
		Seed:       7,
		MinLatency: 5 * time.Microsecond,
		MaxLatency: 50 * time.Microsecond,
		LossProb:   0.05,
		DupProb:    0.05,
		InboxDepth: 1 << 14,
	}
	c := cluster.New(opts)
	defer c.Close()
	c.SeedAt(100, 0, u64(0))
	const N = 20
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db := c.Node(i).DB()
			for k := 0; k < N; k++ {
				if err := dbapi.Run(db, i, func(tx dbapi.Txn) error {
					v, err := tx.Get(100)
					if err != nil {
						return err
					}
					return tx.Set(100, u64(fromU64(v)+1))
				}); err != nil {
					t.Errorf("node %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var final uint64
	for i := 0; i < 3; i++ {
		if o, ok := c.Node(i).Store().Get(100); ok {
			o.Mu.Lock()
			if o.LevelLocked() == wire.Owner {
				final = fromU64(o.DataLocked())
			}
			o.Mu.Unlock()
		}
	}
	if final != 3*N {
		t.Fatalf("lossy network lost updates: %d, want %d", final, 3*N)
	}
}

func TestStoreStateMachineValidAfterCommit(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(110, 0, []byte("s"))
	tx := c.Node(0).BeginOn(0)
	if err := tx.Set(110, []byte("s2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	<-tx.Durable()
	// Every replica is Valid with identical data (TLA+ invariant 1).
	deadline := time.Now().Add(2 * time.Second)
	for {
		allValid := true
		for i := 0; i < 3; i++ {
			o, ok := c.Node(i).Store().Get(110)
			if !ok {
				continue
			}
			o.Mu.Lock()
			if o.LevelLocked() != wire.NonReplica &&
				(o.TState() != store.TValid || string(o.DataLocked()) != "s2") {
				allValid = false
			}
			o.Mu.Unlock()
		}
		if allValid {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never converged to Valid with identical data")
		}
		time.Sleep(time.Millisecond)
	}
}
