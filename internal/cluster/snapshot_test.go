package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/checker"
	"zeus/internal/core"
	"zeus/internal/dbapi"
	"zeus/internal/storage"
	"zeus/internal/storage/memstorage"
	"zeus/internal/wire"
)

func snapshotOptions(nodes int) Options {
	opts := DefaultOptions(nodes)
	opts.SnapshotReads = true
	return opts
}

// TestSnapshotReadsFromReplicaNoOwnerTraffic is the headline property: a
// reader replica serves strictly-serializable snapshot reads entirely from
// its local version ring — the owner is never contacted, and writes
// committed at the owner become visible to fresh snapshots once the
// safe-time covers them.
func TestSnapshotReadsFromReplicaNoOwnerTraffic(t *testing.T) {
	c := New(snapshotOptions(4))
	defer c.Close()
	// Owner node 3, reader replicas 0 and 1; node 2 holds nothing.
	c.Seed(1, 3, wire.BitmapOf(0, 1), u64c(7))

	readOn := func(node int) (uint64, error) {
		var got uint64
		err := dbapi.RunRO(c.Node(node).DB(), node, func(tx dbapi.Txn) error {
			v, err := tx.Get(1)
			if err != nil {
				return err
			}
			got = fromU64c(v)
			return nil
		})
		return got, err
	}

	if got, err := readOn(0); err != nil || got != 7 {
		t.Fatalf("replica snapshot read: got %d, err %v", got, err)
	}

	// Write through the owner, then a FRESH snapshot on the replica must
	// observe it (its timestamp is minted after the commit's CTS).
	err := dbapi.Run(c.Node(3).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(1, u64c(8))
	})
	if err != nil {
		t.Fatalf("owner write: %v", err)
	}
	if got, err := readOn(1); err != nil || got != 8 {
		t.Fatalf("replica snapshot read after write: got %d, err %v", got, err)
	}

	// Zero owner traffic: the reading replicas issued no ownership
	// requests at all, and every read was served from the ring.
	for _, node := range []int{0, 1} {
		if reqs := c.Node(node).OwnershipEngine().Stats().Requests; reqs != 0 {
			t.Fatalf("node %d issued %d ownership requests for snapshot reads", node, reqs)
		}
		if sr := c.Node(node).Stats().SnapshotReads; sr == 0 {
			t.Fatalf("node %d served no ring reads", node)
		}
	}
	if sr := c.Node(3).Stats().SnapshotReads; sr != 0 {
		t.Fatalf("owner served %d snapshot reads, want 0", sr)
	}
}

// TestSnapshotReadNonReplicaRefuses verifies snapshot mode never generates
// ownership traffic: a non-replica refuses the read outright instead of
// auto-acquiring reader level.
func TestSnapshotReadNonReplicaRefuses(t *testing.T) {
	c := New(snapshotOptions(4))
	defer c.Close()
	c.Seed(1, 3, wire.BitmapOf(0, 1), u64c(1))

	err := dbapi.RunRO(c.Node(2).DB(), 0, func(tx dbapi.Txn) error {
		_, err := tx.Get(1)
		return err
	})
	if err != dbapi.ErrNoReplica {
		t.Fatalf("non-replica snapshot read: err %v, want ErrNoReplica", err)
	}
	if reqs := c.Node(2).OwnershipEngine().Stats().Requests; reqs != 0 {
		t.Fatalf("non-replica issued %d ownership requests", reqs)
	}
}

// TestDeleteAtDriverDropsTheWholeReplica: the node that deletes an object may
// also drive its directory shard, and then keeps the bare entry. That entry
// must be as empty as any other dropped replica's — the requester's delete
// branch used to nil the payload only, leaving the old version, commit
// timestamp and ring behind for a later re-create to meet.
func TestDeleteAtDriverDropsTheWholeReplica(t *testing.T) {
	c := New(snapshotOptions(3)) // three nodes: each drives every shard
	defer c.Close()
	c.Seed(31, 0, wire.BitmapOf(1, 2), []byte("seeded"))
	for i := 0; i < 3; i++ {
		if err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
			return tx.Set(31, []byte("written"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitIdle(2 * time.Second) {
		t.Fatal("WaitIdle timed out")
	}
	if err := c.Node(0).DeleteObject(31); err != nil {
		t.Fatal(err)
	}
	o, ok := c.Node(0).Store().Get(31)
	if !ok {
		t.Fatal("the deleting driver lost its directory entry")
	}
	o.Mu.Lock()
	defer o.Mu.Unlock()
	newest, _ := o.RingReadLocked(math.MaxUint64) // a ring entry if any: those carry a CTS
	if o.LevelLocked() != wire.NonReplica || o.DataLocked() != nil || o.TVersion() != 0 ||
		o.CommitCTSLocked() != 0 || newest.CTS != 0 {
		t.Fatalf("surviving entry: level %v, data %q, version %d, CommitCTS %d, newest ring entry at CTS %d; want a bare entry",
			o.LevelLocked(), o.DataLocked(), o.TVersion(), o.CommitCTSLocked(), newest.CTS)
	}
}

// TestSafeTimeAdvancesMonotone checks the safe-time plane end to end: the
// quorum-advanced safe-time catches up to freshly minted timestamps and
// never regresses, across a view change included.
func TestSafeTimeAdvancesMonotone(t *testing.T) {
	c := New(snapshotOptions(4))
	defer c.Close()
	c.SeedRange(1, 8, u64c(0))

	target := c.Node(0).Clock().Next()
	deadline := time.Now().Add(5 * time.Second)
	for c.Node(0).SafeTime() < target {
		if time.Now().After(deadline) {
			t.Fatalf("safe-time stuck at %d, want >= %d", c.Node(0).SafeTime(), target)
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Monotonicity across a removal: sample while a node dies and the
	// recovery barrier runs.
	stop := make(chan struct{})
	var regressed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := c.Node(0).SafeTime()
			if s < last {
				regressed.Store(true)
				return
			}
			last = s
		}
	}()
	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if regressed.Load() {
		t.Fatal("safe-time regressed across a view change")
	}

	// And it advances again in the shrunken view.
	target = c.Node(0).Clock().Next()
	deadline = time.Now().Add(5 * time.Second)
	for c.Node(0).SafeTime() < target {
		if time.Now().After(deadline) {
			t.Fatalf("safe-time stuck after view change at %d, want >= %d",
				c.Node(0).SafeTime(), target)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSnapshotTortureOwnerKillRestart is the snapshot-read torture: two
// counters are always incremented together (invariant a == b), snapshot
// readers on every node record what they observe, the seeded owner is
// crash-stopped mid-load and later restarted from its WAL. The whole
// recorded history — writes and snapshot reads, before, during and after
// the crash — must be strictly serializable, and every snapshot must
// observe the invariant; a restarted node serving a stale ring entry would
// fail both.
func TestSnapshotTortureOwnerKillRestart(t *testing.T) {
	opts := snapshotOptions(4)
	opts.Storage = func(wire.NodeID) storage.Storage { return memstorage.New() }
	c := New(opts)
	defer c.Close()

	const objA, objB = wire.ObjectID(1), wire.ObjectID(2)
	c.Seed(objA, 3, wire.BitmapOf(0, 1), u64c(0))
	c.Seed(objB, 3, wire.BitmapOf(0, 1), u64c(0))

	var (
		histMu sync.Mutex
		hist   []checker.Tx
		notes  = map[int]string{} // a snapshot's T and the CTS of each version it read
		clock  atomic.Int64
		txid   atomic.Int64
	)
	record := func(start, end int64, reads, writes []checker.Access, note string) {
		histMu.Lock()
		id := int(txid.Add(1))
		hist = append(hist, checker.Tx{
			ID: id, Start: start, End: end,
			Reads: reads, Writes: writes,
		})
		if note != "" {
			notes[id] = note
		}
		histMu.Unlock()
	}

	// increment bumps BOTH counters in one transaction. Values are seeded
	// 0 at version 1, every write installs exactly the next version, so
	// value k <=> version k+1 throughout.
	increment := func(node int) bool {
		start := clock.Add(1)
		var va, vb uint64
		err := dbapi.Run(c.Node(node).DB(), node, func(tx dbapi.Txn) error {
			a, err := tx.Get(uint64(objA))
			if err != nil {
				return err
			}
			b, err := tx.Get(uint64(objB))
			if err != nil {
				return err
			}
			va, vb = fromU64c(a)+1, fromU64c(b)+1
			if err := tx.Set(uint64(objA), u64c(va)); err != nil {
				return err
			}
			return tx.Set(uint64(objB), u64c(vb))
		})
		if err != nil {
			return false
		}
		end := clock.Add(1)
		record(start, end,
			[]checker.Access{{Obj: uint64(objA), Ver: va}, {Obj: uint64(objB), Ver: vb}},
			[]checker.Access{{Obj: uint64(objA), Ver: va + 1}, {Obj: uint64(objB), Ver: vb + 1}}, "")
		return true
	}

	// snapRead records one snapshot observation of both counters, with the
	// snapshot's timestamp T and the CTS of the two versions it read; a node
	// that is (currently) no replica, or cannot catch up, is skipped.
	snapRead := func(node int) {
		start := clock.Add(1)
		var a, b uint64
		var note string
		err := dbapi.RunRO(c.Node(node).DB(), node, func(tx dbapi.Txn) error {
			av, err := tx.Get(uint64(objA))
			if err != nil {
				return err
			}
			bv, err := tx.Get(uint64(objB))
			if err != nil {
				return err
			}
			a, b = fromU64c(av), fromU64c(bv)
			ctx := tx.(*core.Tx)
			note = fmt.Sprintf("on node %d at T=%d, read CTS %d (obj %d) and %d (obj %d)",
				node, ctx.SnapshotTS(), ctx.ReadCTS(uint64(objA)), objA, ctx.ReadCTS(uint64(objB)), objB)
			return nil
		})
		if err != nil {
			return
		}
		end := clock.Add(1)
		if a != b {
			t.Errorf("snapshot on node %d tore the invariant: a=%d b=%d", node, a, b)
		}
		record(start, end,
			[]checker.Access{{Obj: uint64(objA), Ver: a + 1}, {Obj: uint64(objB), Ver: b + 1}},
			nil, note)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, node := range []int{0, 1} {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				increment(node)
				// Pace the load: the restart loop below increments on
				// this goroutine's worker too, and a Begin on a busy
				// worker only retries, with back-off. Without the gaps
				// that loop took 1-2 s instead of 0.2-0.3 s on a 2-vCPU
				// host, and the history grew 200-fold.
				time.Sleep(500 * time.Microsecond)
			}
		}(node)
	}
	for _, node := range []int{0, 1, 2} {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snapRead(node)
				time.Sleep(300 * time.Microsecond)
			}
		}(node)
	}

	time.Sleep(20 * time.Millisecond)
	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	// Writers and snapshot readers keep running through the restart.
	n3, err := c.Restart(3)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if p := n3.ReclaimPending(); p != 0 {
		t.Fatalf("reclaim incomplete: %d objects pending", p)
	}

	// The restarted node must serve CURRENT snapshots (its rings were
	// reset at recovery and re-armed by its grants and live commits) while
	// the writers go on around it — a stale ring entry would break the
	// checker's real-time edges below.
	for i := 0; i < 20; i++ {
		increment(i % 2)
		snapRead(3)
		time.Sleep(time.Millisecond)
	}

	close(stop)
	wg.Wait()
	if !c.WaitIdle(5 * time.Second) {
		t.Fatal("pipelines did not drain")
	}

	histMu.Lock()
	defer histMu.Unlock()
	var snaps int
	for _, tx := range hist {
		if tx.Writes == nil {
			snaps++
		}
	}
	if snaps == 0 {
		t.Fatal("no snapshot reads committed at all")
	}
	checkHistory(t, hist, notes)
}
