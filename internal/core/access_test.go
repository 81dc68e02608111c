package core_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"zeus/internal/dbapi"
	"zeus/internal/store"
	"zeus/internal/wire"
)

// The transaction keeps its per-object state in one access set that lives
// inside the Tx for the first few objects and on the heap, with an id index,
// beyond that. These tests run transactions far past the inline capacity and
// check every guarantee the set carries: read-your-writes, repeat-read
// stability, the read-then-write version check, opacity re-validation on
// every Get, and R-INV updates in ascending id order.

// TestLargeReadOnlyAudit reads 1 000 objects in one RO transaction. On the
// 2-vCPU reference host it took 12–17 ms with the four maps and a store
// lookup per validated read, and takes 0.9–1.5 ms with the access set (every
// Get re-validates all earlier reads, so the work is quadratic either way —
// the constant is what changed). The bound is the issue's "within 3× the
// parent's wall time" on the parent's fastest reading: wide enough for a busy
// host, tight enough for a lookup cliff (not checked under -race).
func TestLargeReadOnlyAudit(t *testing.T) {
	const objs = 1000
	c := newCluster(t, 3)
	for i := 1; i <= objs; i++ {
		c.SeedAt(wire.ObjectID(i), 0, u64(uint64(i)))
	}
	n := c.Node(1) // a reader replica
	start := time.Now()
	ro := n.BeginRO()
	var sum uint64
	for i := 1; i <= objs; i++ {
		v, err := ro.Get(uint64(i))
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		sum += fromU64(v)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if want := uint64(objs * (objs + 1) / 2); sum != want {
		t.Fatalf("audit sum %d, want %d", sum, want)
	}
	t.Logf("1 000-object RO audit: %v", elapsed)
	if elapsed > 3*12*time.Millisecond && !raceEnabled {
		t.Fatalf("1 000-object RO audit took %v", elapsed)
	}

	// Repeat reads answer from the set and stay stable under a concurrent
	// write; the first NEW read after it fails the opacity check, and so
	// does the commit of a transaction that only re-read.
	ro = n.BeginRO()
	for i := 1; i < objs; i++ {
		if _, err := ro.Get(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	w := c.Node(0).BeginOn(0)
	if err := w.Set(500, u64(7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if !c.Node(0).CommitEngine().WaitIdle(2 * time.Second) {
		t.Fatal("write never replicated")
	}
	if v, err := ro.Get(500); err != nil || fromU64(v) != 500 {
		t.Fatalf("repeat read of a concurrently written object: %d, %v; want the value first read", fromU64(v), err)
	}
	if _, err := ro.Get(objs); !errors.Is(err, dbapi.ErrConflict) {
		t.Fatalf("new read after a concurrent write: %v, want the opacity conflict", err)
	}
	if err := ro.Commit(); !errors.Is(err, dbapi.ErrConflict) {
		t.Fatalf("commit of a stale audit: %v, want conflict", err)
	}
}

// TestLargeWriteTransaction writes 200 objects in shuffled order.
func TestLargeWriteTransaction(t *testing.T) {
	const objs = 200
	c := newCluster(t, 3)
	for i := 1; i <= objs; i++ {
		c.SeedAt(wire.ObjectID(i), 0, u64(uint64(i)))
	}
	n := c.Node(0)

	// Record the update order of every R-INV a follower receives.
	var mu sync.Mutex
	var orders [][]wire.ObjectID
	fl := c.Node(1)
	fl.Router().Handle(wire.KindCommitInv, func(from wire.NodeID, m wire.Msg) {
		var ids []wire.ObjectID
		for _, u := range m.(*wire.CommitInv).Updates {
			ids = append(ids, u.Obj)
		}
		mu.Lock()
		orders = append(orders, ids)
		mu.Unlock()
		fl.CommitEngine().Handle(from, m)
	})

	ids := rand.New(rand.NewSource(1)).Perm(objs)
	tx := n.BeginOn(0)
	for k, i := range ids {
		id := uint64(i + 1)
		if k%2 == 0 { // half the objects are read before they are written
			if v, err := tx.Get(id); err != nil || fromU64(v) != id {
				t.Fatalf("Get(%d) = %d, %v", id, fromU64(v), err)
			}
		}
		if err := tx.Set(id, u64(id+1000)); err != nil {
			t.Fatalf("Set(%d): %v", id, err)
		}
	}
	for i := 1; i <= objs; i++ { // read-your-writes, blind writes included
		if v, err := tx.Get(uint64(i)); err != nil || fromU64(v) != uint64(i+1000) {
			t.Fatalf("read-your-write of %d: %d, %v", i, fromU64(v), err)
		}
	}
	if err := tx.Set(7, u64(7007)); err != nil { // a second write replaces the first
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tx.Durable():
	case <-time.After(5 * time.Second):
		t.Fatal("200-object commit never validated")
	}
	mu.Lock()
	if len(orders) != 1 || len(orders[0]) != objs {
		t.Fatalf("follower saw %d R-INVs, want one with %d updates", len(orders), objs)
	}
	for i, id := range orders[0] {
		if id != wire.ObjectID(i+1) {
			t.Fatalf("update %d is object %d: updates must ascend by id", i, id)
		}
	}
	mu.Unlock()
	// The other follower catches up with its R-VAL; RunRO retries until then.
	if err := dbapi.RunRO(c.Node(2).DB(), 0, func(ro dbapi.Txn) error {
		for i := 1; i <= objs; i++ {
			want := uint64(i + 1000)
			if i == 7 {
				want = 7007
			}
			v, err := ro.Get(uint64(i))
			if err != nil {
				return err
			}
			if fromU64(v) != want {
				t.Fatalf("replica value of %d: %d, want %d", i, fromU64(v), want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Read-then-write version check, past the inline capacity: an object
	// read early and changed by another worker since must refuse the Set.
	tx = n.BeginOn(0)
	for i := 1; i <= 50; i++ {
		if _, err := tx.Get(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	other := n.BeginOn(1)
	if err := other.Set(3, u64(1)); err != nil {
		t.Fatal(err)
	}
	if err := other.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(3, u64(2)); !errors.Is(err, dbapi.ErrConflict) {
		t.Fatalf("Set of an object changed since it was read: %v, want conflict", err)
	}
	tx.Abort()
	// The refused Set must not have left the object locally owned.
	if err := dbapi.Run(n.DB(), 1, func(t dbapi.Txn) error { return t.Set(3, u64(3)) }); err != nil {
		t.Fatalf("write after the refused Set: %v", err)
	}
}

// TestDurableChannel: Durable is nil for transactions that replicate
// nothing, one stable channel otherwise — asked before the commit validated,
// after, twice, or never — and it closes exactly once (a second close would
// panic this test).
func TestDurableChannel(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(1, 0, u64(1))
	n := c.Node(0)

	ro := n.BeginRO()
	if _, err := ro.Get(1); err != nil {
		t.Fatal(err)
	}
	if ro.Durable() != nil {
		t.Fatal("Durable before Commit must be nil")
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if ro.Durable() != nil {
		t.Fatal("Durable of a read-only transaction must be nil")
	}
	rw := n.BeginOn(0) // a write transaction that wrote nothing
	if _, err := rw.Get(1); err != nil {
		t.Fatal(err)
	}
	if err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
	if rw.Durable() != nil {
		t.Fatal("Durable of a transaction without writes must be nil")
	}
	ab := n.BeginOn(0)
	if err := ab.Set(1, u64(9)); err != nil {
		t.Fatal(err)
	}
	ab.Abort()
	if ab.Durable() != nil {
		t.Fatal("Durable of an aborted transaction must be nil")
	}

	write := func(v uint64) interface{ Durable() <-chan struct{} } {
		tx := n.BeginOn(0)
		if err := tx.Set(1, u64(v)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	early := write(2)
	d := early.Durable() // most likely before validation; either way one channel
	if d == nil || early.Durable() != d {
		t.Fatal("Durable must return one stable, non-nil channel")
	}
	never := write(3)
	late := write(4)
	select {
	case <-d:
	case <-time.After(2 * time.Second):
		t.Fatal("durable never closed")
	}
	if !n.CommitEngine().WaitIdle(2 * time.Second) {
		t.Fatal("pipeline never drained")
	}
	for name, tx := range map[string]interface{ Durable() <-chan struct{} }{"early": early, "never": never, "late": late} {
		ch := tx.Durable()
		if ch == nil || ch != tx.Durable() {
			t.Fatalf("%s: Durable after validation must be one stable, non-nil channel", name)
		}
		select {
		case <-ch:
		default:
			t.Fatalf("%s: Durable not closed although the pipeline is idle", name)
		}
	}
	if early.Durable() != d {
		t.Fatal("Durable changed its channel once the commit validated")
	}
}

// TestUseAfterFinishIsRefused: Get and Set on a committed or aborted
// transaction return an error instead of touching the store — a Set used to
// re-take the local write grant, which nothing then released.
func TestUseAfterFinishIsRefused(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(1, 0, u64(1))
	n := c.Node(0)
	committed := n.BeginOn(0)
	if err := committed.Set(1, u64(2)); err != nil {
		t.Fatal(err)
	}
	if err := committed.Commit(); err != nil {
		t.Fatal(err)
	}
	aborted := n.BeginOn(0)
	aborted.Abort()
	roDone := n.BeginRO()
	if err := roDone.Commit(); err != nil {
		t.Fatal(err)
	}
	for name, tx := range map[string]dbapi.Txn{"committed": committed, "aborted": aborted, "read-only": roDone} {
		if _, err := tx.Get(1); err == nil || errors.Is(err, dbapi.ErrConflict) {
			t.Fatalf("%s: Get after finish returned %v, want a permanent error", name, err)
		}
		if err := tx.Set(1, u64(3)); err == nil || errors.Is(err, dbapi.ErrConflict) {
			t.Fatalf("%s: Set after finish returned %v, want a permanent error", name, err)
		}
		if err := tx.Commit(); err == nil {
			t.Fatalf("%s: second Commit succeeded", name)
		}
	}
	o, _ := n.Store().Get(1)
	o.Mu.Lock()
	owner := o.LocalOwnerLocked()
	o.Mu.Unlock()
	if owner != store.NoLocalOwner {
		t.Fatalf("object still locally owned by worker %d after every transaction finished", owner)
	}
}
