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
// (local contention, lost ownership, failed OCC validation, a read of an
// invalidated object, or a busy worker: a worker runs one transaction,
// read-only included, until Commit or Abort) and should be retried.
var ErrConflict = errors.New("db: transaction conflict, retry")

// ErrNoReplica reports a read-only access on a node that stores no replica
// and could not acquire one.
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
	// Begin starts a write transaction on the given worker thread. A worker
	// runs one transaction, read-only included, until Commit or Abort; on a
	// busy worker the Txn's Get, Set and Commit answer ErrConflict.
	Begin(worker int) Txn
	// BeginRO is Begin for a read-only transaction (§5.3 in Zeus: local and
	// strictly serializable on any replica).
	BeginRO(worker int) Txn
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
// DefaultPolicy, the standard application loop: it retries until fn's
// transaction commits, or returns fn's first other error, or the last
// ErrConflict wrapped with retry.ErrExhausted once the policy runs out.
//
// Run returns when the Txn's Commit does. On core.Node.DB that is the local
// commit (§5.2): a read on another node may still see the previous value for
// a while, which the internal drivers — the benchmark and the experiments,
// measuring the paper's pipelined throughput — accept and report as
// commit.durable_lag. zeus.Node.Update runs Run on a DB whose Commit returns
// once every live follower holds the write.
func Run(db DB, worker int, fn func(Txn) error) error {
	return run(db, worker, fn, false)
}

// RunRO is Run for read-only transactions.
func RunRO(db DB, worker int, fn func(Txn) error) error {
	return run(db, worker, fn, true)
}

func run(db DB, worker int, fn func(Txn) error, ro bool) error {
	return retry.Do(context.Background(), DefaultPolicy,
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
			return err
		})
}
