package dbapi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// fakeDB is an in-memory dbapi implementation with injectable conflicts.
type fakeDB struct {
	mu        sync.Mutex
	vals      map[uint64][]byte
	conflicts int // number of commits to fail before succeeding
	commits   int
	roCommits int
}

func newFakeDB() *fakeDB { return &fakeDB{vals: map[uint64][]byte{}} }

type fakeTxn struct {
	db     *fakeDB
	ro     bool
	writes map[uint64][]byte
	done   bool
}

func (db *fakeDB) Begin(worker int) Txn {
	return &fakeTxn{db: db, writes: map[uint64][]byte{}}
}

func (db *fakeDB) BeginRO(worker int) Txn {
	t := db.Begin(worker).(*fakeTxn)
	t.ro = true
	return t
}

func (t *fakeTxn) Get(obj uint64) ([]byte, error) {
	if w, ok := t.writes[obj]; ok {
		return w, nil
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	v, ok := t.db.vals[obj]
	if !ok {
		return nil, ErrNoReplica
	}
	return append([]byte(nil), v...), nil
}

func (t *fakeTxn) Set(obj uint64, val []byte) error {
	if t.ro {
		return fmt.Errorf("set on read-only")
	}
	t.writes[obj] = append([]byte(nil), val...)
	return nil
}

func (t *fakeTxn) Commit() error {
	if t.done {
		return fmt.Errorf("already finished")
	}
	t.done = true
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	if t.db.conflicts > 0 {
		t.db.conflicts--
		return ErrConflict
	}
	for k, v := range t.writes {
		t.db.vals[k] = v
	}
	if t.ro {
		t.db.roCommits++
	} else {
		t.db.commits++
	}
	return nil
}

func (t *fakeTxn) Abort() { t.done = true }

func TestRunCommitsOnce(t *testing.T) {
	db := newFakeDB()
	err := Run(db, 0, func(tx Txn) error { return tx.Set(1, []byte("x")) })
	if err != nil {
		t.Fatal(err)
	}
	if db.commits != 1 || string(db.vals[1]) != "x" {
		t.Fatalf("commits=%d vals=%v", db.commits, db.vals)
	}
}

func TestRunRetriesConflicts(t *testing.T) {
	db := newFakeDB()
	db.conflicts = 3
	attempts := 0
	err := Run(db, 0, func(tx Txn) error {
		attempts++
		return tx.Set(1, []byte("y"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 4 {
		t.Fatalf("attempts = %d, want 4", attempts)
	}
}

func TestRunStopsOnPermanentError(t *testing.T) {
	db := newFakeDB()
	boom := errors.New("boom")
	attempts := 0
	err := Run(db, 0, func(tx Txn) error {
		attempts++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry on permanent errors)", attempts)
	}
}

func TestRunROUsesReadOnlyTxn(t *testing.T) {
	db := newFakeDB()
	db.vals[7] = []byte("r")
	err := RunRO(db, 0, func(tx Txn) error {
		if err := tx.Set(7, []byte("w")); err == nil {
			t.Error("Set allowed on read-only txn")
		}
		v, err := tx.Get(7)
		if err != nil {
			return err
		}
		if string(v) != "r" {
			t.Errorf("got %q", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.roCommits != 1 {
		t.Fatalf("roCommits = %d", db.roCommits)
	}
}

func TestRunFnErrorAborts(t *testing.T) {
	db := newFakeDB()
	calls := 0
	err := Run(db, 0, func(tx Txn) error {
		calls++
		if calls == 1 {
			return ErrConflict // fn-level conflict: retried
		}
		return tx.Set(1, []byte("second"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || string(db.vals[1]) != "second" {
		t.Fatalf("calls=%d vals=%v", calls, db.vals)
	}
}
