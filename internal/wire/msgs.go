package wire

import (
	"fmt"
	"math/bits"
)

// Kind discriminates message types on the wire.
type Kind uint8

const (
	KindInvalid Kind = iota

	// Ownership protocol (§4).
	KindOwnReq  // requester → driver (a directory node)
	KindOwnInv  // driver → remaining arbiters
	KindOwnAck  // arbiter → requester (or → driver during recovery)
	KindOwnVal  // requester (or recovery driver) → arbiters
	KindOwnNack // arbiter/driver → requester
	KindOwnResp // recovery driver → live requester (confirms arbitration win)

	// Reliable commit protocol (§5).
	KindCommitInv // coordinator → followers (R-INV)
	KindCommitAck // follower → coordinator (R-ACK)
	KindCommitVal // coordinator → followers (R-VAL)

	// Five retired kinds, 10–14: two membership messages (a view broadcast
	// and a recovery-done report, replaced by the view service below) and the
	// three of a load balancer's replicated KV that no measured path used.
	// The numbers are never reused, so every later kind keeps its on-wire
	// value.
	_
	_
	_
	_
	_

	// Distributed-commit baseline (FaRM/FaSST-style OCC + 2PC). Every
	// request but BAbort is answered by one BResp, which took the first
	// reply's number; the other four reply numbers (18, 20, 22, 24) are
	// retired like 10–14.
	KindBReadReq
	KindBResp
	KindBLock
	_
	KindBValidate
	_
	KindBBackup
	_
	KindBCommit
	_
	KindBAbort

	// Replicated view service (Vertical-Paxos-lite membership, §3.1/§5.1).
	KindVSPropose
	KindVSAccept
	KindVSCommit
	KindVSLease
	KindVSQuery

	// Sharded ownership directory (§6.2): shard metadata sync between
	// arbitration drivers after a placement change.
	KindDirPull
	KindDirState

	// Two retired kinds, 33–34: a restarted node's state pull and the
	// owners' answers. Retired like 10–14.
	_
	_

	// A probe no engine handles (SafeTime).
	KindSafeTime

	// Observability pull: a tool (zeusctl metrics/status) asks a node for
	// a point-in-time metrics and liveness snapshot.
	KindObsPull
	KindObsState

	kindSentinel // keep last
)

func (k Kind) String() string {
	names := [...]string{
		"invalid", "own-req", "own-inv", "own-ack", "own-val", "own-nack",
		"own-resp", "r-inv", "r-ack", "r-val", "reserved-10", "reserved-11",
		"reserved-12", "reserved-13", "reserved-14", "b-read-req", "b-resp", "b-lock",
		"reserved-18", "b-validate", "reserved-20", "b-backup",
		"reserved-22", "b-commit", "reserved-24", "b-abort",
		"vs-propose", "vs-accept", "vs-commit", "vs-lease", "vs-query",
		"dir-pull", "dir-state", "reserved-33", "reserved-34", "safe-time",
		"obs-pull", "obs-state",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Msg is any protocol message. Concrete messages are plain structs; Kind
// identifies them for dispatch and serialization.
type Msg interface {
	Kind() Kind
}

// ---------------------------------------------------------------------------
// Ownership protocol messages (§4.1, Figure 3).
// ---------------------------------------------------------------------------

// OwnReq starts an ownership request. The requester picks a locally unique
// ReqID (to match the responses), sets its local o_state = Request, and sends
// the REQ to an arbitrarily chosen directory node, which becomes the driver.
type OwnReq struct {
	ReqID     uint64
	Obj       ObjectID
	Requester NodeID
	Mode      ReqMode
	Epoch     Epoch
	// Target is the reader to drop (DropReader) or the initial reader set
	// encoded as a bitmap (CreateObject).
	Target Bitmap
	// Shard is the directory shard the requester resolved Obj to (§6.2).
	// The driver rejects the REQ (NackNotDriver) when it disagrees — a
	// requester routing on a stale or differently-sized placement re-resolves
	// and retries instead of being arbitrated by the wrong driver set.
	Shard uint32
	// Holds is the Valid version the requester may act on, else 0, restated
	// on every attempt (store.Object.RequestLocked); the source ships a newer.
	Holds uint64
}

func (*OwnReq) Kind() Kind { return KindOwnReq }

// OwnInv is the invalidation the driver broadcasts to the remaining arbiters
// (the other directory nodes and the current owner). It carries the request
// id and the full ownership metadata so that any arbiter can later replay the
// arbitration phase idempotently (arb-replay, §4.1).
type OwnInv struct {
	ReqID     uint64
	Obj       ObjectID
	TS        OTS
	Epoch     Epoch
	Requester NodeID
	Driver    NodeID
	Mode      ReqMode
	// NewReplicas is the replica set after the request applies.
	NewReplicas ReplicaSet
	// PrevOwner is the owner before the request (it must contribute data).
	PrevOwner NodeID
	// Arbiters is the full arbiter set for this request.
	Arbiters Bitmap
	// Recovery marks an arb-replay: ACKs must flow to the driver, not the
	// requester (bottom of Figure 3).
	Recovery bool
	Holds    uint64 // the request's OwnReq.Holds, for the data source
}

func (*OwnInv) Kind() Kind { return KindOwnInv }

// OwnAck is an arbiter's acknowledgement, sent directly to the requester in
// the failure-free case (latency optimization, §4.1) or to the recovery
// driver during arb-replay. The data source reports its version (TVersion)
// and ships the data when the requester holds an older one. Field order is
// memory layout only (the codec writes fields by name): Mode and HasData fill
// Epoch/From's word, which keeps the record at 96 bytes
// (TestChunkedRecordSizes).
type OwnAck struct {
	ReqID       uint64
	Obj         ObjectID
	TS          OTS
	Epoch       Epoch
	From        NodeID
	Mode        ReqMode
	HasData     bool
	Arbiters    Bitmap
	NewReplicas ReplicaSet
	TVersion    uint64
	Data        []byte
}

func (*OwnAck) Kind() Kind { return KindOwnAck }

// OwnVal finalizes a request: the requester (who must apply first) validates
// all arbiters.
type OwnVal struct {
	ReqID uint64
	Obj   ObjectID
	TS    OTS
	Epoch Epoch
}

func (*OwnVal) Kind() Kind { return KindOwnVal }

// OwnNack rejects a request (lost arbitration, pending reliable commits on
// the object, stale epoch, ...). The requester aborts or retries with
// exponential back-off (§6.2).
type OwnNack struct {
	ReqID  uint64
	Obj    ObjectID
	Epoch  Epoch
	From   NodeID
	Reason NackReason
}

func (*OwnNack) Kind() Kind { return KindOwnNack }

// OwnResp confirms the arbitration win to a live requester during recovery so
// that, as in the failure-free case, the requester applies the request before
// any arbiter (§4.1). Laid out as OwnAck is, and for the same reason.
type OwnResp struct {
	ReqID       uint64
	Obj         ObjectID
	TS          OTS
	Epoch       Epoch
	Driver      NodeID
	Mode        ReqMode
	HasData     bool
	Arbiters    Bitmap
	NewReplicas ReplicaSet
	TVersion    uint64
	Data        []byte
}

func (*OwnResp) Kind() Kind { return KindOwnResp }

// ---------------------------------------------------------------------------
// Reliable commit messages (§5.1, Figure 4).
// ---------------------------------------------------------------------------

// CommitInv is R-INV: the idempotent invalidation broadcast by the
// coordinator at the start of the reliable commit. It contains everything a
// follower needs to finish the transaction after a fault.
type CommitInv struct {
	Tx        TxID
	Epoch     Epoch
	Followers Bitmap
	// PrevVal tells a follower that was not a follower of the previous
	// pipeline slot that the previous slot has already been validated, so
	// this R-INV may be applied (§5.2).
	PrevVal bool
	// Replay marks a replayed R-INV after a coordinator failure.
	Replay  bool
	Updates []Update
}

func (*CommitInv) Kind() Kind { return KindCommitInv }

// CommitAck is R-ACK: From applied the slots it names and their WAL appends
// returned. It names a window of one pipe's slots: Tx is the first, and bit i
// of More names slot Tx.Local+1+i. Each set bit names one slot; none is
// implied — a replayed R-INV (Replay) is applied ahead of its predecessors,
// so an R-ACK says nothing of the slots between or before the ones it names.
// CommitAck{Tx: tx} names exactly tx.
type CommitAck struct {
	Tx    TxID
	More  uint64
	Epoch Epoch
	From  NodeID
}

func (*CommitAck) Kind() Kind { return KindCommitAck }

// Slots yields the slots m names, in ascending order.
func (m *CommitAck) Slots(yield func(uint64) bool) { eachSlot(m.Tx.Local, m.More, yield) }

// CommitVal is R-VAL: followers flip the updated objects back to Valid iff
// their t_version has not been increased since, then discard the stored
// R-INV. Like CommitAck it names a window of one pipe's slots, Tx and a bit
// of More for each later one: each set bit names one slot; none is implied.
// A node that did not follow a named slot takes it as ordering only.
type CommitVal struct {
	Tx    TxID
	More  uint64
	Epoch Epoch
}

func (*CommitVal) Kind() Kind { return KindCommitVal }

// Slots yields the slots m names, in ascending order.
func (m *CommitVal) Slots(yield func(uint64) bool) { eachSlot(m.Tx.Local, m.More, yield) }

// eachSlot yields first, then first+1+i for each set bit i of more.
func eachSlot(first, more uint64, yield func(uint64) bool) {
	if !yield(first) {
		return
	}
	for ; more != 0; more &= more - 1 {
		if !yield(first + 1 + uint64(bits.TrailingZeros64(more))) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Membership.
// ---------------------------------------------------------------------------

// View is a membership view: the set of live nodes tagged with a
// monotonically increasing epoch id, installed only after all leases of
// departed nodes have expired (§3.1). It is what agents hand to their
// OnChange subscribers, not a message: views travel inside the view
// service's VSState.
type View struct {
	Epoch Epoch
	Live  Bitmap
}

// ---------------------------------------------------------------------------
// Distributed-commit baseline messages (FaRM/FaSST-style, §6.1).
// ---------------------------------------------------------------------------

// BVer pairs an object with a version for validation.
type BVer struct {
	Obj ObjectID
	Ver uint64
}

// BReadReq fetches an object from its primary (remote access).
type BReadReq struct {
	ReqID uint64
	Obj   ObjectID
}

func (*BReadReq) Kind() Kind { return KindBReadReq }

// BResp answers every baseline request but BAbort; the coordinator matches
// it to its request by ReqID alone. OK reports success: the object was
// readable (a read), every item locked (a lock), every version still current
// (a validation); an install always succeeds. A read's reply carries the
// value and its version in Data and Ver; a lock's carries each item's
// version under the lock in Data, 8 bytes little-endian apiece.
type BResp struct {
	ReqID uint64
	OK    bool
	Ver   uint64
	Data  []byte
}

func (*BResp) Kind() Kind { return KindBResp }

// BLock locks the write set entries homed at the receiving primary, checking
// that versions still match the coordinator's reads (phase LOCK).
type BLock struct {
	ReqID uint64
	Items []BVer
}

func (*BLock) Kind() Kind { return KindBLock }

// BValidate re-checks read-set versions at the primary (phase VALIDATE).
type BValidate struct {
	ReqID uint64
	Items []BVer
}

func (*BValidate) Kind() Kind { return KindBValidate }

// BBackup ships new values to backup replicas (phase UPDATE-BACKUP).
type BBackup struct {
	ReqID   uint64
	Updates []Update
}

func (*BBackup) Kind() Kind { return KindBBackup }

// BCommit applies new values at the primary and releases locks
// (phase UPDATE-PRIMARY).
type BCommit struct {
	ReqID   uint64
	Updates []Update
}

func (*BCommit) Kind() Kind { return KindBCommit }

// BAbort releases locks held by an aborted transaction at the primary.
type BAbort struct {
	ReqID uint64
	Objs  []ObjectID
}

func (*BAbort) Kind() Kind { return KindBAbort }

// ---------------------------------------------------------------------------
// Replicated view service messages (internal/viewsvc).
//
// The membership service the paper assumes (§3.1: a fault-tolerant,
// lease-protected Vertical-Paxos view service) is implemented as a small
// leader-driven replicated state machine. Ballots order leaderships; every
// committed command produces a full post-state snapshot (VSState) so that
// replication and leader takeover are state transfer, not log replay —
// "Vertical Paxos lite".
// ---------------------------------------------------------------------------

// VSOp enumerates view-service commands.
type VSOp uint8

const (
	// VSNoop commits no state change (used by a new leader to re-publish
	// the committed state after a ballot takeover).
	VSNoop VSOp = iota
	// VSFail removes a crashed node (after its lease expired).
	VSFail
	// VSJoin adds a node (scale-out; no recovery barrier).
	VSJoin
	// VSLeave removes a node gracefully (scale-in; barrier still runs).
	VSLeave
	// VSRecoveryDone records one node's recovery-barrier report.
	VSRecoveryDone
)

func (o VSOp) String() string {
	switch o {
	case VSNoop:
		return "noop"
	case VSFail:
		return "fail"
	case VSJoin:
		return "join"
	case VSLeave:
		return "leave"
	case VSRecoveryDone:
		return "recovery-done"
	default:
		return fmt.Sprintf("VSOp(%d)", uint8(o))
	}
}

// VSCommand is one state-machine command. Node is the subject (the failed /
// joining / leaving / reporting node). Epoch is meaningful for VSRecoveryDone
// (the barrier epoch the report belongs to) and VSFail (the join epoch of the
// membership the report ends, VSState.JoinEpoch: a report about an earlier
// membership is a no-op). A VSFail's Epoch is not the node's durable
// incarnation counter (storage.Recovered.Incarnation), which the view never
// sees.
type VSCommand struct {
	Op    VSOp
	Node  NodeID
	Epoch Epoch
	// Addr is the node's advertised transport address (VSJoin only). The
	// state machine folds it into VSState.Addrs, making the address book
	// quorum-committed cluster metadata instead of per-process flag soup.
	Addr string
}

// VSState is the complete view-service state after applying a command: the
// membership view plus the open recovery barrier. Index is the commit index
// of the command that produced it (strictly increasing), which makes state
// transfer idempotent: receivers keep the highest Index they have seen.
type VSState struct {
	Index        uint64
	Epoch        Epoch
	Live         Bitmap
	Barrier      Bitmap // nodes that still owe a recovery report (0 = closed)
	BarrierEpoch Epoch  // epoch whose barrier is (or was last) open
	// Placement is the sharded ownership directory's shard→drivers map
	// (§6.2), recomputed by the state machine on every live-set change so
	// that placement is quorum-committed and survives leader takeover
	// exactly like membership. The Shards slice is immutable once a state
	// is published; states share it freely.
	Placement DirPlacement
	// Addrs is the replicated address book for multi-process deployments:
	// every data node's advertised transport address, seeded from the
	// bootstrap configuration and updated by VSJoin commands. Empty for
	// in-process clusters (the mem fabric needs no addresses). Like
	// Placement.Shards, the slice is immutable once published.
	Addrs []NodeAddr
	// Joined records, for each live node whose membership began with a
	// join, the epoch that join committed at: the node's join epoch, which
	// names its current membership. A live node with no entry is a founder,
	// join epoch 1, so a deployment where nobody (re)joined carries an empty
	// list. Like Addrs, the slice is immutable once published.
	Joined []NodeEpoch
}

// JoinEpoch returns the epoch node's current membership in s began at: the
// epoch its join committed at, or 1 for a founder.
func (s *VSState) JoinEpoch(node NodeID) Epoch {
	for _, j := range s.Joined {
		if j.Node == node {
			return j.Epoch
		}
	}
	return 1
}

// NodeEpoch pairs a node with an epoch (VSState.Joined).
type NodeEpoch struct {
	Node  NodeID
	Epoch Epoch
}

// NodeAddr maps a data node to its advertised transport address.
type NodeAddr struct {
	Node NodeID
	Addr string
}

// VSPropose asks the view-service leader to run a command. Clients multicast
// proposals to every replica; non-leaders ignore them, and commands are
// deduplicated against the current state (a VSFail of an already-dead node is
// a no-op), so retries and duplicate delivery are harmless.
type VSPropose struct {
	Cmd VSCommand
}

func (*VSPropose) Kind() Kind { return KindVSPropose }

// VSAccept carries the quorum-replication and ballot-takeover phases.
//
//	Phase VSPhaseAccept:  leader → replica, replicate entry (Cmd, State).
//	Phase VSPhaseAck:     replica → leader, entry accepted.
//	Phase VSPhasePrepare: candidate → replica, promise ballots < Ballot.
//	Phase VSPhasePromise: replica → candidate, carrying the replica's
//	                      committed state and (if any) accepted entry.
type VSAccept struct {
	Ballot uint64
	Phase  uint8
	Cmd    VSCommand
	State  VSState // accept/ack: the entry; promise: committed state

	// Promise-only: the replica's accepted-but-uncommitted entry.
	HasAcc    bool
	AccBallot uint64
	AccCmd    VSCommand
	AccState  VSState
}

// VSAccept phases.
const (
	VSPhaseAccept uint8 = iota
	VSPhaseAck
	VSPhasePrepare
	VSPhasePromise
)

func (*VSAccept) Kind() Kind { return KindVSAccept }

// VSCommit announces a committed command and its post-state to replicas and
// subscribed clients. BarrierDone marks the command that closed the recovery
// barrier for DoneEpoch; the flag is advisory (clients derive completion
// from the open→closed state transition, which also covers commits they
// learned via VSQuery instead of this push).
type VSCommit struct {
	Ballot      uint64
	Cmd         VSCommand
	State       VSState
	BarrierDone bool
	DoneEpoch   Epoch
}

func (*VSCommit) Kind() Kind { return KindVSCommit }

// VSLeaseMsg is a lease renewal (client → replicas, Nodes = the data nodes
// renewing — a client coalesces all of its agents' renewals into one bitmap
// per throttle window) or a leader heartbeat (leader → replicas, Heartbeat
// set; Ballot lets replicas track the current leadership).
type VSLeaseMsg struct {
	Nodes     Bitmap
	Heartbeat bool
	Ballot    uint64
}

func (*VSLeaseMsg) Kind() Kind { return KindVSLease }

// VSQuery reads the committed state from a replica (Resp=false) or carries
// the reply (Resp=true). Clients use it to seed their cache and as a backstop
// when a pushed VSCommit was lost.
type VSQuery struct {
	Resp   bool
	Ballot uint64
	State  VSState
}

func (*VSQuery) Kind() Kind { return KindVSQuery }

// ---------------------------------------------------------------------------
// Sharded-directory sync messages (§6.2, internal/directory).
//
// When a placement change makes a node a NEW driver of a shard (a previous
// driver crashed, or a joined node rendezvous-ranked into the set), the new
// driver has no directory entries for the shard's objects. It pulls the
// shard's metadata — replica sets and ownership timestamps, never object
// data — from the surviving drivers, NACKing ownership REQs for the shard
// (NackRecovering) until the first snapshot lands.
// ---------------------------------------------------------------------------

// DirPull asks a surviving driver for the directory metadata of a set of
// shards (all shards the puller newly drives that share the same source
// set, so one view change costs each source a single store scan). The
// source answers with one DirState per shard, echoing PlacementEpoch.
type DirPull struct {
	Shards         []uint32
	PlacementEpoch Epoch
	From           NodeID
}

func (*DirPull) Kind() Kind { return KindDirPull }

// DirEntry is one object's directory metadata: the applied ownership
// timestamp and replica set (Table 1's o_ts / o_replicas). Pending flags an
// arbitration that was in flight at the source when it snapshotted: the
// entry's applied state may be superseded the moment that arbitration's
// replay completes, so a new driver must not mint timestamps from it until
// it has observed the outcome (directory.Service suspect gating).
type DirEntry struct {
	Obj      ObjectID
	TS       OTS
	Replicas ReplicaSet
	Pending  bool
}

// DirState carries one shard's directory snapshot to a pulling driver.
// Entries are applied idempotently: an entry only installs over a strictly
// older ownership timestamp, and never over a pending arbitration.
// PlacementEpoch echoes the pull it answers, so a delayed snapshot from a
// superseded placement cannot mark a newer pull complete.
type DirState struct {
	Shard          uint32
	PlacementEpoch Epoch
	From           NodeID
	Entries        []DirEntry
}

func (*DirState) Kind() Kind { return KindDirState }

// ---------------------------------------------------------------------------
// Transport probe.
// ---------------------------------------------------------------------------

// SafeTime is a small message no engine handles. Its one user is the
// benchmark's hub round-trip probe (benchmark/ladder.go), which times it
// through the transport alone. The kind keeps its number, as retired kinds
// do.
type SafeTime struct {
	From  NodeID
	Epoch Epoch
	WM    uint64
}

func (*SafeTime) Kind() Kind { return KindSafeTime }

// ---------------------------------------------------------------------------
// Observability pull (zeusctl metrics / status).
// ---------------------------------------------------------------------------

// ObsPull asks a node for an observability snapshot. Full additionally
// requests the rendered metric text (zeusctl metrics); without it the reply
// carries only the scalar status fields (zeusctl status), keeping the
// periodic status poll cheap.
type ObsPull struct {
	From NodeID
	Full bool
}

func (*ObsPull) Kind() Kind { return KindObsPull }

// ObsState answers an ObsPull with the node's liveness scalars — current
// epoch, committed transaction count, watchdog incident count — plus, when
// Full was requested, the full text-format metric dump.
type ObsState struct {
	From      NodeID
	Epoch     Epoch
	Commits   uint64
	Incidents uint64
	Metrics   []byte
}

func (*ObsState) Kind() Kind { return KindObsState }
