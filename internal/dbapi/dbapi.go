// Package dbapi defines the minimal transactional interface shared by the
// Zeus datastore (internal/core) and the distributed-commit baseline
// (internal/baseline), so that every benchmark workload runs unchanged
// against both systems — mirroring how the paper compares Zeus with
// FaRM/FaSST/DrTM on identical workloads.
package dbapi

import (
	"context"
	"errors"
	"time"

	"zeus/internal/retry"
)

// ErrConflict is the retryable abort error: the transaction lost a conflict
// (local contention, lost ownership, failed OCC validation, or a read of an
// invalidated object) and should be retried by the application.
var ErrConflict = errors.New("db: transaction conflict, retry")

// ErrNoReplica reports a read-only access on a node that stores no replica
// and could not (or was configured not to) acquire one.
var ErrNoReplica = errors.New("db: object has no local replica")

// Txn is one transaction: reads and writes of whole objects, finished by
// exactly one Commit or Abort.
type Txn interface {
	// Get returns the object's value. In a write transaction the value
	// reflects the transaction's own pending writes. The bytes are a view of
	// the committed (or this transaction's staged) version, not a copy: the
	// datastore never writes them again and they stay valid for as long as
	// the caller keeps them, but the caller must not write them either —
	// copy before modifying. A committed empty value may read as nil (Zeus's
	// does): test len, not nil.
	Get(obj uint64) ([]byte, error)
	// Set buffers a full-object write (invalid on read-only transactions).
	// The datastore may adopt val instead of copying it — Zeus does: the
	// bytes become the version the commit publishes, shared with its
	// replicas — so the caller hands them over and must not write them after
	// Set; build a fresh slice for every write.
	Set(obj uint64, val []byte) error
	// Commit attempts to commit; ErrConflict means retry.
	Commit() error
	// Abort abandons the transaction.
	Abort()
}

// DB is a transactional datastore node.
type DB interface {
	// Begin starts a write transaction on the given worker thread.
	Begin(worker int) Txn
	// BeginRO starts a read-only transaction (§5.3 in Zeus: local and
	// strictly serializable on any replica).
	BeginRO(worker int) Txn
}

// Recycler is an optional capability of a DB that run uses, not an API for
// applications: run owns each Txn from Begin to the return of Commit or Abort,
// so it is the one caller that knows nothing else holds the handle, and hands
// it back for the DB to reuse on a later Begin. A DB without it (a decorator,
// the baseline, a test double) gets a fresh Txn per attempt.
type Recycler interface {
	// Recycle takes back a Txn that Commit or Abort finished. The DB refuses
	// (ignores) one that is not its own or not finished.
	Recycle(Txn)
}

// DefaultPolicy is the conflict-retry policy used by Run/RunRO. It is
// deliberately crash-recovery tolerant: no attempt cap, a generous elapsed
// budget, so applications ride through an owner failover (membership lease
// expiry + view change + replay, §5.1 — milliseconds to seconds) and observe
// the retried transaction committing instead of a spurious ErrConflict.
var DefaultPolicy = retry.Policy{
	InitialBackoff: 2 * time.Microsecond,
	MaxBackoff:     2 * time.Millisecond,
	Multiplier:     2,
	Jitter:         1,
	MaxElapsed:     30 * time.Second,
}

// Run executes fn inside a write transaction with retry-on-conflict under
// DefaultPolicy, the standard application loop.
func Run(db DB, worker int, fn func(Txn) error) error {
	return RunWith(context.Background(), db, worker, DefaultPolicy, fn)
}

// RunRO is Run for read-only transactions.
func RunRO(db DB, worker int, fn func(Txn) error) error {
	return RunROWith(context.Background(), db, worker, DefaultPolicy, fn)
}

// RunWith executes fn inside a write transaction, retrying conflicts under
// the given policy until it commits, the policy is exhausted (the last
// ErrConflict is returned, wrapped with retry.ErrExhausted), or ctx is done.
func RunWith(ctx context.Context, db DB, worker int, p retry.Policy, fn func(Txn) error) error {
	return run(ctx, db, worker, p, fn, false)
}

// RunROWith is RunWith for read-only transactions.
func RunROWith(ctx context.Context, db DB, worker int, p retry.Policy, fn func(Txn) error) error {
	return run(ctx, db, worker, p, fn, true)
}

func run(ctx context.Context, db DB, worker int, p retry.Policy, fn func(Txn) error, ro bool) error {
	rec, _ := db.(Recycler)
	return retry.Do(ctx, p,
		func(err error) bool { return errors.Is(err, ErrConflict) },
		func(int) error {
			var tx Txn
			if ro {
				tx = db.BeginRO(worker)
			} else {
				tx = db.Begin(worker)
			}
			err := fn(tx)
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Abort()
			}
			if rec != nil {
				rec.Recycle(tx)
			}
			return err
		})
}
