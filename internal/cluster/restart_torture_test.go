package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/checker"
	"zeus/internal/dbapi"
	"zeus/internal/storage"
	"zeus/internal/storage/memstorage"
	"zeus/internal/wire"
)

// TestCrashRestartTorture is the durable-recovery end-to-end: a node is
// crash-stopped mid-load, restarted against the WAL + snapshot its previous
// incarnation wrote while the survivors keep loading, and must come back
// through its reclaim with nothing lost:
//
//   - every object its durable state names it owner of is reclaimed — those
//     no survivor touched with their committed values, those a survivor took
//     over meanwhile by one ownership move each;
//   - the full committed history — before, during and after the crash —
//     stays strictly serializable;
//   - every committed increment is readable afterwards from both a survivor
//     and the restarted node, which fetches what it only read on access.
func TestCrashRestartTorture(t *testing.T) {
	opts := DefaultOptions(4)
	opts.Storage = func(wire.NodeID) storage.Storage { return memstorage.New() }
	opts.Observability = true
	c := New(opts)
	defer c.Close()

	// Counter objects: value == number of committed increments. Objects
	// 100..111 take load from the survivors; 200..203 are written only by
	// node 3 and then left alone, so its restart must reclaim them.
	var (
		histMu sync.Mutex
		hist   []checker.Tx
		clock  atomic.Int64
		txid   atomic.Int64
	)

	const loadBase, loadN = wire.ObjectID(100), 12
	const soloBase, soloN = wire.ObjectID(200), 4
	for i := 0; i < loadN; i++ {
		c.SeedAt(loadBase+wire.ObjectID(i), wire.NodeID(i%4), u64c(0))
	}
	for i := 0; i < soloN; i++ {
		c.SeedAt(soloBase+wire.ObjectID(i), 3, u64c(0))
	}

	counts := make(map[wire.ObjectID]*atomic.Uint64)
	for i := 0; i < loadN; i++ {
		counts[loadBase+wire.ObjectID(i)] = &atomic.Uint64{}
	}
	// A lost increment started as a bare grant, which the grant transition
	// now refuses: a failure prints the refusals beside what each object
	// should hold.
	defer func() {
		logUnbacked(t, c)
		for i := 0; t.Failed() && i < loadN; i++ {
			t.Logf("object %d: %d increments committed", loadBase+wire.ObjectID(i), counts[loadBase+wire.ObjectID(i)].Load())
		}
	}()

	// increment bumps obj by 1 on node, recording the committed footprint.
	increment := func(node int, obj wire.ObjectID) bool {
		start := clock.Add(1)
		var readVer uint64
		err := dbapi.Run(c.Node(node).DB(), node, func(tx dbapi.Txn) error {
			v, err := tx.Get(uint64(obj))
			if err != nil {
				return err
			}
			readVer = fromU64c(v) + 1 // seeded value 0 <=> version 1
			return tx.Set(uint64(obj), u64c(fromU64c(v)+1))
		})
		if err != nil {
			return false
		}
		end := clock.Add(1)
		histMu.Lock()
		hist = append(hist, checker.Tx{
			ID: int(txid.Add(1)), Start: start, End: end,
			Reads:  []checker.Access{{Obj: uint64(obj), Ver: readVer}},
			Writes: []checker.Access{{Obj: uint64(obj), Ver: readVer + 1}},
		})
		histMu.Unlock()
		if ctr := counts[obj]; ctr != nil {
			ctr.Add(1)
		}
		return true
	}

	// Phase 0: node 3 writes its solo objects, fully replicates, and
	// snapshots — the snapshot is what lets recovery prove "I owned these".
	soloWrites := 3
	for i := 0; i < soloN; i++ {
		for k := 0; k < soloWrites; k++ {
			if !increment(3, soloBase+wire.ObjectID(i)) {
				t.Fatalf("solo write %d on object %d failed", k, soloBase+wire.ObjectID(i))
			}
		}
	}
	if !c.Node(3).CommitEngine().WaitIdle(5 * time.Second) {
		t.Fatal("solo writes did not replicate")
	}
	if err := c.Node(3).SnapshotNow(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	// Phase 1: survivors hammer the load objects while node 3 serves as
	// owner/follower; then the crash.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, node := range []int{0, 1, 2} {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			r := uint64(node)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r = r*6364136223846793005 + 1
				increment(node, loadBase+wire.ObjectID(r%loadN))
			}
		}(node)
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	// Phase 2: restart node 3 from its retained storage, under load.
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
	// The survivors load through the restart and past it, so a fast restart
	// does not shrink the history.
	for until := time.Now().Add(2 * time.Second); time.Now().Before(until); time.Sleep(time.Millisecond) {
		histMu.Lock()
		enough := len(hist) >= 200
		histMu.Unlock()
		if enough {
			break
		}
	}

	// Phase 3: the restarted node takes writes again.
	for i := 0; i < 10; i++ {
		increment(3, loadBase+wire.ObjectID(i%loadN))
	}
	close(stop)
	wg.Wait()
	if !c.WaitIdle(5 * time.Second) {
		t.Fatal("pipelines did not drain")
	}

	// No lost grants: the solo objects must have come back owned by node 3
	// (nobody else claimed them while it was down).
	for i := 0; i < soloN; i++ {
		obj := soloBase + wire.ObjectID(i)
		o, ok := n3.Store().Get(obj)
		if !ok {
			t.Fatalf("solo object %d missing after restart", obj)
		}
		o.Mu.Lock()
		lvl, owner := o.LevelLocked(), o.ReplicasLocked().Owner
		o.Mu.Unlock()
		if lvl != wire.Owner || owner != 3 {
			t.Fatalf("solo object %d not reclaimed: level=%v owner=%v", obj, lvl, owner)
		}
	}

	// Every committed increment must be readable — from a survivor and from
	// the restarted node.
	for i := 0; i < loadN; i++ {
		obj := loadBase + wire.ObjectID(i)
		want := counts[obj].Load()
		if got := readOn(t, c, 0, obj); got != want {
			t.Fatalf("object %d on survivor: value %d, committed %d", obj, got, want)
		}
		if got := readOn(t, c, 3, obj); got != want {
			t.Fatalf("object %d on restarted node: value %d, committed %d", obj, got, want)
		}
	}
	for i := 0; i < soloN; i++ {
		obj := soloBase + wire.ObjectID(i)
		if got := readOn(t, c, 3, obj); got != uint64(soloWrites) {
			t.Fatalf("solo object %d: value %d, committed %d", obj, got, soloWrites)
		}
	}

	// The recorded history — spanning the crash and the restart — must be
	// strictly serializable.
	histMu.Lock()
	defer histMu.Unlock()
	checkHistory(t, hist, nil)
	if len(hist) < 50 {
		t.Fatalf("history suspiciously small: %d committed transactions", len(hist))
	}
}

// readOn reads the counter obj on node.
func readOn(t *testing.T, c *Cluster, node int, obj wire.ObjectID) uint64 {
	t.Helper()
	var got uint64
	if err := dbapi.Run(c.Node(node).DB(), 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(uint64(obj))
		got = fromU64c(v)
		return err
	}); err != nil {
		t.Fatalf("read %d on node %d: %v", obj, node, err)
	}
	return got
}

// TestRestartBesideADeadOwner restarts a node whose durable state names a
// dead node as owner of an object it only read. The restart waits for nobody
// (no owner is left to ask), and the node then reads the object's last value
// from the surviving reader.
func TestRestartBesideADeadOwner(t *testing.T) {
	opts := DefaultOptions(4)
	opts.Storage = func(wire.NodeID) storage.Storage { return memstorage.New() }
	c := New(opts)
	defer c.Close()

	const x = wire.ObjectID(1)
	c.Seed(x, 0, wire.BitmapOf(1, 3), u64c(0))
	if err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(uint64(x))
		if err != nil {
			return err
		}
		return tx.Set(uint64(x), u64c(fromU64c(v)+1))
	}); err != nil {
		t.Fatalf("increment on node 0: %v", err)
	}
	if !c.WaitIdle(5 * time.Second) {
		t.Fatal("pipelines did not drain")
	}
	if err := c.Node(3).SnapshotNow(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, node := range []int{3, 0} {
		if err := c.Kill(node); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if _, err := c.Restart(3); err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Logf("restart took %v", time.Since(start))
	if got := readOn(t, c, 3, x); got != 1 {
		t.Fatalf("object %d on the restarted node: value %d, want 1", x, got)
	}
}

// TestRestartReclaimsAThousandObjects restarts a node that owned 1 000
// objects and logs how long the restart's reclaim, one ownership move per
// object, takes. It asserts what the restart leaves behind, not its time.
func TestRestartReclaimsAThousandObjects(t *testing.T) {
	opts := DefaultOptions(4)
	opts.Storage = func(wire.NodeID) storage.Storage { return memstorage.New() }
	c := New(opts)
	defer c.Close()

	const base, objects = wire.ObjectID(1), 1000
	for i := 0; i < objects; i++ {
		c.SeedAt(base+wire.ObjectID(i), 3, u64c(0))
	}
	if err := c.Node(3).SnapshotNow(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n3, err := c.Restart(3)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Logf("restart of a node that owned %d objects took %v", objects, time.Since(start))
	if p := n3.ReclaimPending(); p != 0 {
		t.Fatalf("reclaim incomplete: %d objects pending", p)
	}
	for i := 0; i < objects; i++ {
		obj := base + wire.ObjectID(i)
		o, ok := n3.Store().Get(obj)
		if !ok {
			t.Fatalf("object %d missing after restart", obj)
		}
		o.Mu.Lock()
		lvl := o.LevelLocked()
		o.Mu.Unlock()
		if lvl != wire.Owner {
			t.Fatalf("object %d not reclaimed: level %v", obj, lvl)
		}
	}
}
