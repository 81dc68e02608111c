package core_test

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/core"
	"zeus/internal/dbapi"
)

// Get returns a view of the version it read, not a copy. These tests hold the
// two halves of that contract: no copy is made, and nothing the engine does
// later — a commit, a staged write, a ring eviction — changes bytes a caller
// still holds.

func sameArray(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

func TestGetReturnsAViewNotACopy(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(1, 0, u64(7))
	for name, begin := range map[string]func() *core.Tx{
		"write":     func() *core.Tx { return c.Node(0).BeginOn(0) },
		"read-only": func() *core.Tx { return c.Node(1).BeginRO() },
	} {
		tx := begin()
		a, err := tx.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tx.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameArray(a, b) {
			t.Errorf("%s: two Gets of one object returned different backing arrays: a copy is being made", name)
		}
		tx.Abort()
	}
}

func TestViewSurvivesLaterCommits(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(1, 0, u64(0))
	owner, reader := c.Node(0), c.Node(1)
	ro := reader.BeginRO()
	atReader, err := ro.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	ro.Abort()
	var held [][]byte // held[i] was read when the object held i
	for i := uint64(0); i < 10; i++ {
		tx := owner.BeginOn(0)
		v, err := tx.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, v)
		if err := tx.Set(1, u64(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if !owner.CommitEngine().WaitIdle(2 * time.Second) {
		t.Fatal("pipelines never drained")
	}
	for i, v := range held {
		if got := fromU64(v); got != uint64(i) {
			t.Errorf("the slice read at value %d reads %d after %d more commits", i, got, len(held)-i)
		}
	}
	if got := fromU64(atReader); got != 0 {
		t.Errorf("the reader replica's slice reads %d after 10 replicated commits, want 0", got)
	}
}

// TestViewSurvivesSetInTheSameTransaction: Set adopts the caller's bytes, so a
// Get after it returns them; a second Set, with a fresh buffer as the contract
// asks, replaces the staged slice and leaves the first one — which the caller
// may still hold — as it was.
func TestViewSurvivesSetInTheSameTransaction(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(1, 0, u64(1))
	tx := c.Node(0).BeginOn(0)
	before, err := tx.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	staged := u64(2)
	if err := tx.Set(1, staged); err != nil {
		t.Fatal(err)
	}
	after, err := tx.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if fromU64(before) != 1 || fromU64(after) != 2 {
		t.Fatalf("before Set reads %d, after reads %d; want 1 and 2", fromU64(before), fromU64(after))
	}
	if !sameArray(after, staged) {
		t.Fatal("Get after Set returned a copy, not the bytes handed to Set")
	}
	replacement := u64(3)
	if err := tx.Set(1, replacement); err != nil {
		t.Fatal(err)
	}
	latest, err := tx.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameArray(latest, replacement) || fromU64(after) != 2 {
		t.Fatalf("after a second Set: Get returns the new buffer %v, the first staged value reads %d (want true, 2)",
			sameArray(latest, replacement), fromU64(after))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if fromU64(before) != 1 || fromU64(after) != 2 || fromU64(latest) != 3 {
		t.Fatalf("after Commit the three slices read %d, %d and %d; want 1, 2 and 3", fromU64(before), fromU64(after), fromU64(latest))
	}
}

// TestSetAdoptsTheCallersBytes: the bytes handed to Set are the version the
// commit publishes — no copy at the owner, none at a follower on the hub,
// which hands the R-INV over by pointer — with the capacity clipped, so an
// append to the version reallocates instead of writing past it. An empty
// value is staged as nil, which storage reads as "no data".
func TestSetAdoptsTheCallersBytes(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(1, 0, u64(0))
	c.SeedAt(2, 0, u64(0))
	owner := c.Node(0)
	val := make([]byte, 8, 64) // spare capacity the version must not expose
	copy(val, u64(5))
	tx := owner.BeginOn(0)
	if err := tx.Set(1, val); err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(2, []byte{}); err != nil {
		t.Fatal(err)
	}
	got, err := tx.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameArray(got, val) || len(got) != 8 || cap(got) != 8 {
		t.Fatalf("Get after Set: same array %v, len %d, cap %d; want the caller's array, 8, 8", sameArray(got, val), len(got), cap(got))
	}
	if empty, err := tx.Get(2); err != nil || empty != nil {
		t.Fatalf("an empty value staged as %#v (%v), want nil", empty, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !owner.CommitEngine().WaitIdle(2 * time.Second) {
		t.Fatal("pipelines never drained")
	}
	for i := 0; i < 3; i++ {
		o, ok := c.Node(i).Store().Get(1)
		if !ok {
			t.Fatalf("node %d holds no replica", i)
		}
		o.Mu.Lock()
		data := o.DataLocked()
		o.Mu.Unlock()
		if !sameArray(data, val) || cap(data) != 8 {
			t.Errorf("node %d holds the version in its own array (same %v, cap %d): it was copied", i, sameArray(data, val), cap(data))
		}
	}
}

// TestWorkerTxGuardRails: DB's transactions on a worker run in the worker's
// own Tx. Commit or Abort zeroes it — nothing of the transaction but its
// commit slot stays reachable from it — and it refuses everything until the
// worker's next Begin, as does a handle kept past dbapi.Run. Durable still
// answers for the committed write. A Begin while the worker is busy answers
// ErrConflict instead.
func TestWorkerTxGuardRails(t *testing.T) {
	c := newCluster(t, 3)
	c.SeedAt(1, 0, u64(0))
	db := c.Node(0).DB()
	finished := func(how string, tx *core.Tx) {
		t.Helper()
		v := reflect.ValueOf(tx).Elem()
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; name != "finished" && name != "slot" && !v.Field(i).IsZero() {
				t.Errorf("%s: the worker's Tx keeps %s = %v", how, name, v.Field(i))
			}
		}
		if _, err := tx.Get(1); err == nil || errors.Is(err, dbapi.ErrConflict) {
			t.Errorf("%s: Get answered %v, want the finished error", how, err)
		}
		if err := tx.Set(1, u64(9)); err == nil || errors.Is(err, dbapi.ErrConflict) {
			t.Errorf("%s: Set answered %v, want the finished error", how, err)
		}
		if err := tx.Commit(); err == nil || errors.Is(err, dbapi.ErrConflict) {
			t.Errorf("%s: Commit answered %v, want the finished error", how, err)
		}
		tx.Abort()
	}
	durable := func(how string, tx *core.Tx) {
		t.Helper()
		d := tx.Durable()
		if d == nil {
			t.Fatalf("%s: a committed write reports no Durable channel", how)
		}
		select {
		case <-d:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the committed write never became durable", how)
		}
	}

	live := db.Begin(0).(*core.Tx)
	busy := db.Begin(0)
	if _, err := busy.Get(1); !errors.Is(err, dbapi.ErrConflict) {
		t.Fatalf("Get in a Begin on a busy worker answered %v, want ErrConflict", err)
	}
	if err := busy.Set(1, u64(9)); !errors.Is(err, dbapi.ErrConflict) {
		t.Fatalf("Set in a Begin on a busy worker answered %v, want ErrConflict", err)
	}
	if err := busy.Commit(); !errors.Is(err, dbapi.ErrConflict) {
		t.Fatalf("Commit of a Begin on a busy worker answered %v, want ErrConflict", err)
	}
	if err := live.Set(1, u64(1)); err != nil {
		t.Fatalf("the busy worker's Begin disturbed its transaction: %v", err)
	}
	if err := live.Commit(); err != nil {
		t.Fatal(err)
	}
	durable("committed", live)
	finished("committed", live)

	aborted := db.Begin(0).(*core.Tx)
	if aborted != live {
		t.Fatal("the worker's next transaction does not run in the worker's Tx")
	}
	if err := aborted.Set(1, u64(2)); err != nil {
		t.Fatal(err)
	}
	aborted.Abort()
	finished("aborted", aborted)

	// The handle dbapi.Run passed to fn is finished, and so inert, on return.
	var kept dbapi.Txn
	if err := dbapi.Run(db, 1, func(tx dbapi.Txn) error {
		kept = tx
		return tx.Set(1, u64(2))
	}); err != nil {
		t.Fatal(err)
	}
	durable("kept past dbapi.Run", kept.(*core.Tx))
	finished("kept past dbapi.Run", kept.(*core.Tx))
	if err := dbapi.Run(db, 0, func(tx dbapi.Txn) error { return tx.Set(1, u64(3)) }); err != nil {
		t.Fatalf("a write after the stale Set: %v", err)
	}
}

// TestLeaseSerializesAWorker: goroutines that share one worker id and one
// object take turns. A Begin on the busy worker answers ErrConflict, which
// dbapi.Run retries, so no two transactions run on the worker at once and no
// increment is lost. (Two transactions on one worker id used to share its
// local write grant and both commit the same version.)
func TestLeaseSerializesAWorker(t *testing.T) {
	c := newCluster(t, 3)
	const goroutines, rounds = 4, 300
	c.SeedAt(1, 0, u64(0))
	db := c.Node(0).DB()
	var (
		running atomic.Int32
		wg      sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := dbapi.Run(db, 0, func(tx dbapi.Txn) error {
					v, err := tx.Get(1)
					if err != nil {
						return err // among them the busy worker's
					}
					if running.Add(1) != 1 {
						t.Error("two transactions run on one worker at once")
					}
					defer running.Add(-1)
					return tx.Set(1, u64(fromU64(v)+1))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var got uint64
	if err := dbapi.RunRO(db, 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(1)
		got = fromU64(v)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != goroutines*rounds {
		t.Fatalf("the counter reads %d after %d increments", got, goroutines*rounds)
	}
}
