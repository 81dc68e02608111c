// Package zeus is a Go implementation of Zeus (Katsarakis et al., EuroSys
// '21): an in-memory, replicated, strongly-consistent transactional
// datastore that exploits access locality. Instead of running distributed
// transactions across nodes, Zeus migrates object ownership to the node
// executing a transaction (a reliable 1.5-RTT protocol) and then commits
// locally, replicating updates through pipelined, idempotent invalidations.
// Read-only transactions run locally on any replica with strict
// serializability.
//
// The package is a facade over the full implementation in internal/: the
// ownership protocol (§4 of the paper), the reliable commit protocol (§5),
// the transactional memory API (§7), a lease-based membership service and a
// simulated datacenter fabric with loss/duplication/reordering.
//
// Quick start:
//
//	c := zeus.New(zeus.Options{Nodes: 3})
//	defer c.Close()
//	n := c.Node(0)
//	_ = n.CreateObject(1, []byte("hello"))
//	err := n.Update(0, func(tx *zeus.Tx) error {
//	    v, err := tx.Get(1)
//	    if err != nil { return err }
//	    return tx.Set(1, append(append([]byte(nil), v...), '!'))
//	})
package zeus

import (
	"errors"
	"time"

	"zeus/internal/cluster"
	"zeus/internal/core"
	"zeus/internal/dbapi"
	"zeus/internal/netsim"
	"zeus/internal/obs"
	"zeus/internal/ownership"
	"zeus/internal/wire"
)

// ErrConflict is the retryable transaction-conflict error, also what a busy
// worker answers (a worker runs one transaction, read-only included, until
// Commit or Abort). Update retries it; manual Commit callers should retry
// with back-off.
var ErrConflict = dbapi.ErrConflict

// ErrUnknownObject reports an access to an object that was never created
// (or was deleted).
var ErrUnknownObject = ownership.ErrUnknownObject

// Options configures a Zeus deployment.
type Options struct {
	// Nodes is the number of servers (default 3).
	Nodes int
	// ReplicationDegree is replicas per object, owner included (default 3,
	// as evaluated in the paper).
	ReplicationDegree int
	// Workers is the number of worker threads per node; each worker owns a
	// reliable-commit pipeline (default 8, at most 256: New panics above).
	Workers int
	// DirectoryShards partitions the ownership directory (§6.2) into hash
	// shards, each driven by up to three nodes chosen by rendezvous
	// hashing from the live view; the shard→drivers placement map is
	// replicated through the view service, so arbitration load spreads
	// across the cluster and a crashed driver's shards are re-driven after
	// its lease expires. Values <= 0 (the default) scale the shard count
	// with the host like the store's shards.
	DirectoryShards int
	// ViewReplicas is the size of the replicated membership (view service)
	// ensemble backing the deployment (default and maximum 3 — the
	// ensemble lives in a reserved transport-id range; larger values are
	// clamped). The replicas run the Vertical-Paxos-lite protocol over
	// the cluster's fabric; the deployment tolerates the crash of any
	// minority of the actual ensemble.
	ViewReplicas int
	// SimulatedNetwork, when true, runs over the lossy simulated fabric
	// with the reliable messaging layer instead of the perfect in-process
	// hub. Configure faults via Network.
	SimulatedNetwork bool
	// Network configures the simulated fabric (loss, duplication,
	// latency); the zero value is netsim.DefaultConfig. The reliable
	// messaging layer above it derives its timeouts from the latency scale.
	Network netsim.Config
	// OnOwnershipLatency observes every successful ownership request's
	// latency (the Figure 12 metric).
	OnOwnershipLatency func(time.Duration)
	// Observability gives every node an obs.Registry: per-node counters and
	// latency histograms across the commit, ownership, storage and transport
	// layers, sampled per-transaction traces, and the commit-engine debt
	// watchdog. Reach a node's registry via Node.Obs. Off by default — every
	// record site then stays behind its nil check, leaving the hot paths as
	// the seed measured them.
	Observability bool
	// TraceSample samples every Nth write transaction with a per-phase
	// trace (begin → inv → ack → val → applied); the slowest traces per
	// window are kept in the registry's trace table. 0 disables. Requires
	// Observability.
	TraceSample uint64
	// WatchdogAge arms the commit-engine debt watchdog: replication debt
	// older than this threshold raises structured incidents in the
	// registry's incident log. 0 defers to the ZEUS_WATCHDOG_AGE
	// environment variable (unset = off).
	WatchdogAge time.Duration
}

// Cluster is an in-process Zeus deployment.
type Cluster struct {
	c *cluster.Cluster
}

// New starts a deployment.
func New(opts Options) *Cluster {
	co := cluster.DefaultOptions(max(opts.Nodes, 1))
	// cluster.New defaults a non-positive degree or worker count.
	co.Degree = opts.ReplicationDegree
	co.Workers = opts.Workers
	co.View.DirShards = opts.DirectoryShards
	co.ViewReplicas = opts.ViewReplicas
	if opts.SimulatedNetwork {
		co.Fabric = cluster.FabricSim
		co.Net = opts.Network
		if co.Net == (netsim.Config{}) {
			co.Net = netsim.DefaultConfig()
		}
	}
	co.OnOwnershipLatency = opts.OnOwnershipLatency
	co.Observability = opts.Observability
	co.TraceSample = opts.TraceSample
	co.WatchdogAge = opts.WatchdogAge
	return &Cluster{c: cluster.New(co)}
}

// Close shuts the deployment down.
func (c *Cluster) Close() { c.c.Close() }

// Node returns server i.
func (c *Cluster) Node(i int) *Node { return &Node{n: c.c.Node(i)} }

// Nodes returns the deployment size.
func (c *Cluster) Nodes() int { return c.c.Nodes() }

// Kill crash-stops node i and waits for the membership view change and the
// recovery barrier (pending reliable commits of the dead node are replayed
// by the survivors before ownership requests resume).
func (c *Cluster) Kill(i int) error { return c.c.Kill(i) }

// KillViewReplica crash-stops membership view-service replica i. The
// deployment keeps working as long as a replica quorum survives; killing
// the current leader triggers a ballot takeover by the next replica.
func (c *Cluster) KillViewReplica(i int) error { return c.c.KillViewReplica(i) }

// AddNode joins a fresh node (scale-out) and returns it.
func (c *Cluster) AddNode() *Node { return &Node{n: c.c.AddNode()} }

// Leave removes node i gracefully (scale-in).
func (c *Cluster) Leave(i int) error { return c.c.Leave(i) }

// Seed bulk-installs an object with an explicit owner, bypassing the
// protocols — use for initial data loading only. Like Tx.Set it adopts data:
// the bytes become the seeded version every replica holds, so the caller must
// not write them after the call. A value over what one replication message
// carries (wire.MaxBlob, 64 MiB) is refused, as Tx.Set refuses it.
func (c *Cluster) Seed(obj uint64, owner int, data []byte) error {
	return c.c.SeedAt(wire.ObjectID(obj), wire.NodeID(owner), data)
}

// Messages returns the total protocol messages carried so far.
func (c *Cluster) Messages() uint64 { return c.c.Messages() }

// Bytes returns the total payload bytes carried so far.
func (c *Cluster) Bytes() uint64 { return c.c.Bytes() }

// Node is one Zeus server.
type Node struct {
	n *core.Node
}

// ID returns the node's id.
func (n *Node) ID() int { return int(n.n.ID()) }

// Begin starts a write transaction on an idle worker. A worker runs one
// transaction, read-only included, until Commit or Abort. Only when every
// worker ran one at a single instant during the call do the Tx's Get, Set and
// Commit answer ErrConflict; Begin never waits for a worker.
func (n *Node) Begin() *Tx { return &Tx{tx: n.n.Begin()} }

// BeginOn starts a write transaction on a specific worker thread (worker ids
// map onto reliable-commit pipelines). A worker runs one transaction,
// read-only included, until Commit or Abort: on a busy worker the Tx's Get,
// Set and Commit answer ErrConflict.
func (n *Node) BeginOn(worker int) *Tx { return &Tx{tx: n.n.BeginOn(worker)} }

// BeginRO starts a read-only transaction: local on any replica, strictly
// serializable, no network traffic. It takes no worker.
func (n *Node) BeginRO() *Tx { return &Tx{tx: n.n.BeginRO()} }

// CreateObject registers a new object owned by this node with the default
// placement (ReplicationDegree replicas) and replicates the initial value.
func (n *Node) CreateObject(obj uint64, data []byte) error {
	return n.n.CreateObject(wire.ObjectID(obj), data)
}

// DeleteObject unregisters an object deployment-wide.
func (n *Node) DeleteObject(obj uint64) error {
	return n.n.DeleteObject(wire.ObjectID(obj))
}

// Update runs fn in a write transaction on the given worker, retrying
// conflicts with exponential back-off, a busy worker's too: a worker runs
// one transaction, read-only included, until Commit or Abort. It returns as
// Commit does, once every live follower holds the write. The Tx is fn's for
// the length of the call: a handle kept past it refuses every operation.
func (n *Node) Update(worker int, fn func(*Tx) error) error {
	return dbapi.Run(publicDB{n.n}, worker, scoped(fn))
}

// View runs fn in a read-only transaction on the given worker, retrying
// conflicts, a busy worker's included. As with Update, the Tx ends with the
// call.
func (n *Node) View(worker int, fn func(*Tx) error) error {
	return dbapi.RunRO(publicDB{n.n}, worker, scoped(fn))
}

// publicDB is the node's DB — the worker's own transaction record, which
// keeps a transaction off the heap — under the public commit rule: a write's
// Commit returns once every live follower holds it. Both types are one
// pointer, so handing them out as interfaces allocates nothing.
type publicDB struct{ n *core.Node }

// publicTx is a core.Tx whose Commit is CommitDurable.
type publicTx struct{ *core.Tx }

func (d publicDB) Begin(worker int) dbapi.Txn {
	return publicTx{d.n.DB().Begin(worker).(*core.Tx)}
}

func (d publicDB) BeginRO(worker int) dbapi.Txn {
	return publicTx{d.n.DB().BeginRO(worker).(*core.Tx)}
}

func (t publicTx) Commit() error { return t.CommitDurable() }

// scoped hands fn a handle that is severed when fn returns: the engine
// reuses the worker's core.Tx for its next transaction, which a handle that
// still pointed at it would reach into.
func scoped(fn func(*Tx) error) func(dbapi.Txn) error {
	return func(t dbapi.Txn) error {
		w := &Tx{tx: t.(publicTx).Tx}
		err := fn(w)
		w.tx = core.FinishedTx
		return err
	}
}

// Stats reports this node's transaction counters.
type Stats struct {
	Commits          uint64
	Aborts           uint64
	ReadOnlyCommits  uint64
	ReadOnlyAborts   uint64
	OwnershipMoves   uint64
	PendingPipelines int
}

// Stats returns a snapshot of counters.
func (n *Node) Stats() Stats {
	cs := n.n.Stats()
	os := n.n.OwnershipEngine().Stats()
	return Stats{
		Commits:          cs.Commits,
		Aborts:           cs.Aborts,
		ReadOnlyCommits:  cs.ROCommits,
		ReadOnlyAborts:   cs.ROAborts,
		OwnershipMoves:   os.Succeeded,
		PendingPipelines: n.n.CommitEngine().PendingSlots(),
	}
}

// AcquireOwnership migrates obj's ownership to this node explicitly (the
// bulk-migration primitive behind the paper's Voter experiments). Write
// transactions acquire ownership implicitly; this is for re-sharding tools.
func (n *Node) AcquireOwnership(obj uint64) error {
	return n.n.OwnershipEngine().AcquireOwnership(wire.ObjectID(obj))
}

// Obs returns this node's observability registry — counters, histograms,
// sampled traces and watchdog incidents (nil unless the deployment was built
// with Options.Observability). See internal/obs for the registry API.
func (n *Node) Obs() *obs.Registry { return n.n.Obs() }

// Tx is one transaction. Exactly one of Commit or Abort must finish it
// (Update and View do that themselves, and the handle they pass to fn is dead
// once fn returns).
type Tx struct {
	tx *core.Tx // core.FinishedTx once Update/View severed the handle
}

// Get returns the value of obj as seen by the transaction. The bytes are a
// view, not a copy: the committed version, or the value this transaction Set.
// Zeus never writes them again and they stay valid for as long as the caller
// keeps them, but the caller must not write them either — copy before
// modifying (append([]byte(nil), v...)). A committed empty value reads as nil.
func (t *Tx) Get(obj uint64) ([]byte, error) { return t.tx.Get(obj) }

// Set buffers a full-object write. val is adopted, not copied: the bytes
// become the version the commit publishes, shared with every replica that
// applies it, so the caller must not write them after Set — build a fresh
// slice for every write. (The version's capacity is clipped to its length,
// so an append to what Get returns for it reallocates.) A transaction's
// writes travel in one replication message: a Set that would take them past
// 64 MiB (wire.MaxBlob) is refused with an error and stages nothing.
func (t *Tx) Set(obj uint64, val []byte) error { return t.tx.Set(obj, val) }

// Commit finishes the transaction; ErrConflict means retry. A write returns
// nil once every live follower holds it, so a transaction that starts after
// that, on any node, reads it. Only the caller waits for the followers: the
// worker takes its next transaction as soon as the write committed locally.
// If the node closes during the wait, Commit returns an error that is not a
// conflict — the write committed locally, and whether it survives is not
// known, so it must not be retried as if it had not happened.
func (t *Tx) Commit() error { return t.tx.CommitDurable() }

// Abort abandons the transaction.
func (t *Tx) Abort() { t.tx.Abort() }

// IsConflict reports whether err is the retryable conflict error.
func IsConflict(err error) bool { return errors.Is(err, ErrConflict) }
