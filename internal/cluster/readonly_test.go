package cluster

import (
	"errors"
	"fmt"
	"os"
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

// TestReadOnlyFromReplicaNoOwnerTraffic is §5.3's headline property: a reader
// replica serves strictly serializable read-only transactions from its local
// replica — the owner is never contacted, and a write committed at the owner
// is what the replica reads once its reliable commit completed.
func TestReadOnlyFromReplicaNoOwnerTraffic(t *testing.T) {
	c := New(DefaultOptions(4))
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
		t.Fatalf("replica read: got %d, err %v", got, err)
	}

	// Write through the owner; once its reliable commit completed, the
	// replica reads it.
	err := dbapi.Run(c.Node(3).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(1, u64c(8))
	})
	if err != nil {
		t.Fatalf("owner write: %v", err)
	}
	if !c.WaitIdle(2 * time.Second) {
		t.Fatal("WaitIdle timed out")
	}
	if got, err := readOn(1); err != nil || got != 8 {
		t.Fatalf("replica read after write: got %d, err %v", got, err)
	}

	// Zero owner traffic: the reading replicas issued no ownership requests,
	// committed their read-only transactions themselves, and the owner ran
	// none.
	for _, node := range []int{0, 1} {
		if reqs := c.Node(node).OwnershipEngine().Stats().Requests; reqs != 0 {
			t.Fatalf("node %d issued %d ownership requests for its reads", node, reqs)
		}
		if ro := c.Node(node).Stats().ROCommits; ro == 0 {
			t.Fatalf("node %d committed no read-only transaction", node)
		}
	}
	if ro := c.Node(3).Stats().ROCommits; ro != 0 {
		t.Fatalf("owner committed %d read-only transactions, want 0", ro)
	}
}

// TestReadOnlyTortureOwnerKillRestart: two counters are always incremented
// together (invariant a == b), read-only transactions on every node record
// what they observe, the seeded owner is crash-stopped mid-load and later
// restarted from its WAL. The whole recorded history — writes and reads,
// before, during and after the crash — must be strictly serializable, and
// every read-only transaction must observe the invariant; a restarted node
// serving a stale replica would fail both.
//
// A write ends, in the history's real time, when its reliable commit
// completed (core.Tx.Durable): a read-only transaction reads Valid replicas,
// and a follower's replica turns Invalid at the R-INV, so from then on no
// replica serves the previous version. Before it, a follower may still serve
// the previous version Valid, although the writer's Commit returned at its
// local commit. Each goroutine runs on a worker of its own, so a writer's Tx
// still names its commit slot when it asks for Durable.
func TestReadOnlyTortureOwnerKillRestart(t *testing.T) {
	opts := DefaultOptions(4)
	opts.Storage = func(wire.NodeID) storage.Storage { return memstorage.New() }
	c := New(opts)
	defer c.Close()

	const objA, objB = wire.ObjectID(1), wire.ObjectID(2)
	c.Seed(objA, 3, wire.BitmapOf(0, 1), u64c(0))
	c.Seed(objB, 3, wire.BitmapOf(0, 1), u64c(0))

	var (
		histMu sync.Mutex
		hist   []checker.Tx
		notes  = map[int]string{} // the node a read-only transaction ran on
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

	// increment bumps BOTH counters in one transaction, on worker w of node.
	// Values are seeded 0 at version 1, every write installs exactly the
	// next version, so value k <=> version k+1 throughout. A write whose
	// reliable commit does not complete is recorded, ending at the timeout,
	// and reported as errNotDurable.
	errNotDurable := errors.New("reliable commit not complete after 10 s")
	increment := func(node, w int) error {
		start := clock.Add(1)
		var va, vb uint64
		var ctx *core.Tx
		err := dbapi.Run(c.Node(node).DB(), w, func(tx dbapi.Txn) error {
			ctx = tx.(*core.Tx)
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
			return err
		}
		select {
		case <-ctx.Durable():
		case <-time.After(10 * time.Second):
			err = errNotDurable
		}
		end := clock.Add(1)
		record(start, end,
			[]checker.Access{{Obj: uint64(objA), Ver: va}, {Obj: uint64(objB), Ver: vb}},
			[]checker.Access{{Obj: uint64(objA), Ver: va + 1}, {Obj: uint64(objB), Ver: vb + 1}}, "")
		return err
	}

	// readBoth records one read-only observation of both counters; one that
	// cannot commit (the retry policy ran out while the objects moved or
	// their owner was down) records nothing.
	readBoth := func(node int) {
		start := clock.Add(1)
		var a, b uint64
		err := dbapi.RunRO(c.Node(node).DB(), 3, func(tx dbapi.Txn) error {
			av, err := tx.Get(uint64(objA))
			if err != nil {
				return err
			}
			bv, err := tx.Get(uint64(objB))
			if err != nil {
				return err
			}
			a, b = fromU64c(av), fromU64c(bv)
			return nil
		})
		if err != nil {
			return
		}
		end := clock.Add(1)
		if a != b {
			t.Errorf("read-only transaction on node %d tore the invariant: a=%d b=%d", node, a, b)
		}
		record(start, end,
			[]checker.Access{{Obj: uint64(objA), Ver: a + 1}, {Obj: uint64(objB), Ver: b + 1}},
			nil, fmt.Sprintf("on node %d", node))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := func() {
		close(stop)
		wg.Wait()
	}
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
				// A background increment may lose to the crash, but
				// one that committed must complete its reliable commit.
				if err := increment(node, node); errors.Is(err, errNotDurable) {
					t.Errorf("increment on node %d: %v", node, err)
				}
				// Pace the load: unpaced, the history grows 200-fold.
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
				readBoth(node)
				time.Sleep(300 * time.Microsecond)
			}
		}(node)
	}

	time.Sleep(20 * time.Millisecond)
	if err := c.Kill(3); err != nil {
		halt()
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	// Writers and readers keep running through the restart.
	n3, err := c.Restart(3)
	if err != nil {
		halt()
		t.Fatalf("restart: %v", err)
	}
	if p := n3.ReclaimPending(); p != 0 {
		halt()
		t.Fatalf("reclaim incomplete: %d objects pending", p)
	}

	// The restarted node must serve CURRENT values while the writers go on
	// around it — a stale replica would break the checker's real-time edges
	// below. Every increment here must commit: one that fails is a wedge,
	// dumped while it holds.
	for i := 0; i < 20; i++ {
		if err := increment(i%2, 2); err != nil {
			c.WedgeDump(os.Stderr, fmt.Sprintf("read-only torture increment %d on node %d: %v", i, i%2, err))
			halt()
			t.Fatalf("increment %d on node %d after the restart: %v", i, i%2, err)
		}
		readBoth(3)
		time.Sleep(time.Millisecond)
	}

	halt()
	if !c.WaitIdle(5 * time.Second) {
		t.Fatal("pipelines did not drain")
	}

	histMu.Lock()
	defer histMu.Unlock()
	var reads int
	for _, tx := range hist {
		if tx.Writes == nil {
			reads++
		}
	}
	if reads == 0 {
		t.Fatal("no read-only transaction committed at all")
	}
	checkHistory(t, hist, notes)
}
