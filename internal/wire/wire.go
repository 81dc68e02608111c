// Package wire defines the identifiers, timestamps and protocol messages
// exchanged by Zeus nodes, together with a compact binary codec.
//
// Everything that crosses a node boundary in this repository — the ownership
// protocol (§4 of the paper), the reliable commit protocol (§5), the view
// service's membership commands, directory shard transfers, and the
// distributed commit baseline — is expressed as a wire.Msg and serialized
// with wire.Marshal / wire.Unmarshal.
//
// A transport that reads a stream of messages decodes it through a Decoder
// instead of Unmarshal: one Decoder per inbound stream, owned by the
// goroutine that reads the stream (or serialized by its owner, as the hub does
// per destination) and not safe for concurrent use. It carves the records of
// the reliable-commit and ownership kinds from 16-record chunks (Chunk), so a
// decoded R-INV, R-ACK, R-VAL or ownership message is a sixteenth of an
// allocation; the engines Take the ones they emit from chunks of their own.
// Nobody releases a record — the garbage collector frees a chunk when its
// last record dies. A payload slab (an R-INV's, a data-carrying ownership
// ACK's) is deliberately not chunked: the receiver keeps it as the replica's
// value, and a value carved from a shared array would pin its neighbours for
// as long as the object goes unwritten. Both entries run the same kind switch
// and decode the same values.
package wire

import (
	"fmt"
	"math/bits"
)

// NodeID identifies a Zeus node (server). The paper uses the terms node and
// server interchangeably; so does this codebase.
type NodeID uint16

// NoNode is the sentinel "no such node" value (e.g. an object with no owner).
const NoNode NodeID = 0xFFFF

// MaxNodes bounds deployment size so that node sets fit in a Bitmap.
const MaxNodes = 64

// ObjectID names an object in the store. Applications map their keys onto
// ObjectIDs (the benchmarks use dense ranges; the apps hash).
type ObjectID uint64

// Epoch is the monotonically increasing membership epoch id (e_id). Every
// ownership and reliable-commit message carries the sender's epoch, and
// receivers ignore messages from other epochs (§3.1, §4.1, §5.1).
type Epoch uint32

// Worker identifies an application/datastore worker thread within a node.
// Reliable-commit pipelines are per (node, worker) pairs (§5.2, §7).
type Worker uint8

// Bitmap is a set of NodeIDs (bit i set ⇒ node i in the set).
type Bitmap uint64

// Add returns b with node n added.
func (b Bitmap) Add(n NodeID) Bitmap { return b | 1<<uint(n) }

// Remove returns b with node n removed.
func (b Bitmap) Remove(n NodeID) Bitmap { return b &^ (1 << uint(n)) }

// Contains reports whether node n is in the set.
func (b Bitmap) Contains(n NodeID) bool {
	return n < MaxNodes && b&(1<<uint(n)) != 0
}

// Count returns the number of nodes in the set.
func (b Bitmap) Count() int {
	c := 0
	for v := uint64(b); v != 0; v &= v - 1 {
		c++
	}
	return c
}

// Union returns the union of both sets.
func (b Bitmap) Union(o Bitmap) Bitmap { return b | o }

// Intersect returns the intersection of both sets.
func (b Bitmap) Intersect(o Bitmap) Bitmap { return b & o }

// Nodes returns the members in ascending order.
func (b Bitmap) Nodes() []NodeID {
	out := make([]NodeID, 0, b.Count())
	for i := NodeID(0); i < MaxNodes; i++ {
		if b.Contains(i) {
			out = append(out, i)
		}
	}
	return out
}

// Each yields the members in ascending order without building the slice
// Nodes allocates; it is a range-over-func iterator for the per-message
// fan-out loops: for n := range set.Each { ... }.
func (b Bitmap) Each(yield func(NodeID) bool) {
	for v := uint64(b); v != 0; v &= v - 1 {
		if !yield(NodeID(bits.TrailingZeros64(v))) {
			return
		}
	}
}

// BitmapOf builds a Bitmap from the given nodes.
func BitmapOf(nodes ...NodeID) Bitmap {
	var b Bitmap
	for _, n := range nodes {
		b = b.Add(n)
	}
	return b
}

func (b Bitmap) String() string { return fmt.Sprintf("%v", b.Nodes()) }

// OTS is the ownership timestamp o_ts = ⟨obj_ver, node_id⟩ (§4). Timestamps
// are compared lexicographically; the node id breaks ties so concurrent
// drivers always produce totally ordered, per-object-unique timestamps.
type OTS struct {
	Ver  uint64
	Node NodeID
}

// Less reports whether o orders strictly before x (lexicographic compare).
func (o OTS) Less(x OTS) bool {
	if o.Ver != x.Ver {
		return o.Ver < x.Ver
	}
	return o.Node < x.Node
}

// Equal reports whether both timestamps are identical.
func (o OTS) Equal(x OTS) bool { return o == x }

func (o OTS) String() string { return fmt.Sprintf("⟨%d,%d⟩", o.Ver, o.Node) }

// PipeID names a reliable-commit pipeline: one per (node, worker) pair and
// per coordinator incarnation. A node that crashed and rejoined restarts its
// slot numbering at 1, and without the incarnation stamp a follower's pipe
// state from the previous life (watermark, done set) would misread the fresh
// slots as duplicates — acknowledging them without applying, which silently
// loses the write. Distinct incarnations are distinct pipes. Incar is the
// storage driver's durable per-process incarnation counter on durable nodes
// (it advances on every restart, even one that beats the failure detector so
// the view epoch never bumps); memory-only nodes fall back to the view epoch
// at pipe creation, which is safe because their rejoin always bumps it.
type PipeID struct {
	Node   NodeID
	Worker Worker
	Incar  Epoch
}

func (p PipeID) String() string { return fmt.Sprintf("n%d/w%d@%d", p.Node, p.Worker, p.Incar) }

// TxID is tx_id = ⟨local_tx_id, node_id⟩ extended with the worker so that
// pipelines are per-thread as in §7. Local is monotonically increasing within
// its pipe and orders causally-related reliable commits (§5.2).
type TxID struct {
	Pipe  PipeID
	Local uint64
}

func (t TxID) String() string { return fmt.Sprintf("%s#%d", t.Pipe, t.Local) }

// AccessLevel is a node's ownership level for an object (Table 1).
type AccessLevel uint8

const (
	// NonReplica nodes hold neither data nor access rights for the object.
	NonReplica AccessLevel = iota
	// Reader nodes hold a replica with read access; they may serve local
	// read-only transactions (§5.3) but never write transactions.
	Reader
	// Owner is the unique node with exclusive write (and read) access.
	Owner
)

func (a AccessLevel) String() string {
	switch a {
	case NonReplica:
		return "non-replica"
	case Reader:
		return "reader"
	case Owner:
		return "owner"
	default:
		return fmt.Sprintf("AccessLevel(%d)", uint8(a))
	}
}

// ReplicaSet is o_replicas: the owner plus the reader set of an object.
// Readers never contains the owner.
type ReplicaSet struct {
	Owner   NodeID
	Readers Bitmap
}

// All returns every node storing a replica (owner + readers).
func (r ReplicaSet) All() Bitmap {
	b := r.Readers
	if r.Owner != NoNode {
		b = b.Add(r.Owner)
	}
	return b
}

// LevelOf returns node n's access level under this replica set.
func (r ReplicaSet) LevelOf(n NodeID) AccessLevel {
	switch {
	case n == r.Owner:
		return Owner
	case r.Readers.Contains(n):
		return Reader
	default:
		return NonReplica
	}
}

// WithOwner returns a copy where n is the owner; the previous owner (if any,
// and if distinct) is demoted to reader so it keeps its replica.
func (r ReplicaSet) WithOwner(n NodeID) ReplicaSet {
	out := r
	if out.Owner != NoNode && out.Owner != n {
		out.Readers = out.Readers.Add(out.Owner)
	}
	out.Owner = n
	out.Readers = out.Readers.Remove(n)
	return out
}

// WithReader returns a copy where n is (additionally) a reader. Promoting the
// current owner is a no-op.
func (r ReplicaSet) WithReader(n NodeID) ReplicaSet {
	out := r
	if n != out.Owner {
		out.Readers = out.Readers.Add(n)
	}
	return out
}

// WithoutReader returns a copy with reader n dropped.
func (r ReplicaSet) WithoutReader(n NodeID) ReplicaSet {
	out := r
	out.Readers = out.Readers.Remove(n)
	return out
}

// Prune removes every replica that is not in live; a dead owner becomes
// NoNode (the next write transaction's requester takes over, §4.1).
func (r ReplicaSet) Prune(live Bitmap) ReplicaSet {
	out := r
	out.Readers = out.Readers.Intersect(live)
	if out.Owner != NoNode && !live.Contains(out.Owner) {
		out.Owner = NoNode
	}
	return out
}

func (r ReplicaSet) String() string {
	return fmt.Sprintf("{owner:%d readers:%s}", r.Owner, r.Readers)
}

// Update is one modified object carried by an R-INV message: the new
// t_version and t_data produced by a locally-committed write transaction.
type Update struct {
	Obj     ObjectID
	Version uint64
	Data    []byte
}

// ReqMode distinguishes the sharding request types carried by OwnReq (§6.2).
type ReqMode uint8

const (
	// AcquireOwner asks for exclusive write access (and the data if the
	// requester is a non-replica).
	AcquireOwner ReqMode = iota
	// AcquireReader asks for read access and the data (adds a replica).
	AcquireReader
	// DropReader removes a reader to restore the replication degree,
	// invoked out of the critical path after ownership grew the set.
	DropReader
	// CreateObject registers a fresh object with the directory: the
	// requester becomes owner and the given readers become replicas.
	CreateObject
	// DeleteObject unregisters an object deployment-wide.
	DeleteObject
)

func (m ReqMode) String() string {
	switch m {
	case AcquireOwner:
		return "acquire-owner"
	case AcquireReader:
		return "acquire-reader"
	case DropReader:
		return "drop-reader"
	case CreateObject:
		return "create"
	case DeleteObject:
		return "delete"
	default:
		return fmt.Sprintf("ReqMode(%d)", uint8(m))
	}
}

// NackReason explains a rejected ownership request.
type NackReason uint8

const (
	// NackLostArbitration: a concurrent request with a larger o_ts won.
	NackLostArbitration NackReason = iota
	// NackPendingCommit: the owner has pending reliable commits involving
	// the object (§4.1); retry after they drain.
	NackPendingCommit
	// NackWrongEpoch: the request was issued in a stale epoch.
	NackWrongEpoch
	// NackUnknownObject: the directory has no entry for the object.
	NackUnknownObject
	// NackRecovering: ownership requests are paused during recovery (§5.1).
	NackRecovering
	// NackNotDriver: the REQ reached a node that does not drive the
	// object's directory shard (stale or mismatched placement, §6.2); the
	// requester re-resolves the placement and retries.
	NackNotDriver
	// NackUnbacked: the requester refused a grant its data source's value
	// did not back (store.Object.GrantLocked); raised locally, never sent.
	NackUnbacked
)

func (r NackReason) String() string {
	switch r {
	case NackLostArbitration:
		return "lost-arbitration"
	case NackPendingCommit:
		return "pending-commit"
	case NackWrongEpoch:
		return "wrong-epoch"
	case NackUnknownObject:
		return "unknown-object"
	case NackRecovering:
		return "recovering"
	case NackNotDriver:
		return "not-driver"
	case NackUnbacked:
		return "unbacked"
	default:
		return fmt.Sprintf("NackReason(%d)", uint8(r))
	}
}
