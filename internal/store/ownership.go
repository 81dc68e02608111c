package store

import (
	"sync"
	"time"

	"zeus/internal/wire"
)

// OState is the ownership state of an object at an arbiter (§4).
type OState uint8

const (
	// OValid: ownership metadata is stable.
	OValid OState = iota
	// OInvalid: an ownership INV has been applied; awaiting VAL.
	OInvalid
	// ORequest: this node has an outstanding ownership request.
	ORequest
	// ODrive: this directory node is driving an ownership request.
	ODrive
)

func (s OState) String() string {
	switch s {
	case OValid:
		return "Valid"
	case OInvalid:
		return "Invalid"
	case ORequest:
		return "Request"
	case ODrive:
		return "Drive"
	default:
		return "OState(?)"
	}
}

// PendingOwn is the arbitration record an arbiter keeps between processing an
// ownership INV and the matching VAL. It contains everything needed to replay
// the exact INV during failure recovery (arb-replay, §4.1).
type PendingOwn struct {
	ReqID       uint64
	TS          wire.OTS
	Requester   wire.NodeID
	Driver      wire.NodeID
	Mode        wire.ReqMode
	NewReplicas wire.ReplicaSet
	PrevOwner   wire.NodeID
	Arbiters    wire.Bitmap
	Epoch       wire.Epoch
	Holds       uint64 // the requester's wire.OwnReq.Holds
	// Since records when this arbitration was applied locally; drivers
	// force-complete (arb-replay) arbitrations that linger past a
	// staleness threshold, e.g. because the requester gave up.
	Since time.Time
}

// Shipped is a committed value that travels with a grant: the ownership ACK's
// piggyback or a seed. Has false ships nothing: Version is
// then the data source's version, and the zero Shipped has no source.
type Shipped struct {
	Has     bool
	Version uint64
	Data    []byte
}

// pendPool recycles arbitration records: an object's is set at REQ/INV time
// and cleared at VAL time, three records per move, each in the cold record
// that coldPool recycles beside it. The pointer never leaves this file —
// PendingLocked and the transitions hand out copies — so a recycled record
// cannot be read through a stale reference.
var pendPool = sync.Pool{New: func() any { return new(PendingOwn) }}

// pendingRec is the arbitration record, nil when none is pending.
func (o *Object) pendingRec() *PendingOwn {
	if o.cold == nil {
		return nil
	}
	return o.cold.pending
}

// setPendingLocked makes p the arbitration record, overwriting the one it
// supersedes.
func (o *Object) setPendingLocked(p PendingOwn) {
	c := o.coldFor()
	if c.pending == nil {
		c.pending = pendPool.Get().(*PendingOwn)
	}
	*c.pending = p
}

// clearPendingLocked recycles the arbitration record, and the cold record if
// the arbitration was all it held.
func (o *Object) clearPendingLocked() {
	if c := o.cold; c != nil && c.pending != nil {
		pendPool.Put(c.pending)
		c.pending = nil
		o.settleColdLocked()
	}
}

// Reads of the ownership side (caller holds Mu).

// LevelLocked returns this node's access level for the object.
func (o *Object) LevelLocked() wire.AccessLevel { return o.level }

// OStateLocked returns o_state.
func (o *Object) OStateLocked() OState { return o.ostate }

// OTSLocked returns o_ts, the timestamp of the last applied grant.
func (o *Object) OTSLocked() wire.OTS { return wire.OTS{Ver: o.otsVer, Node: o.otsNode} }

// ReplicasLocked returns o_replicas.
func (o *Object) ReplicasLocked() wire.ReplicaSet {
	return wire.ReplicaSet{Owner: o.owner, Readers: o.readers}
}

func (o *Object) setOTSLocked(ts wire.OTS) { o.otsVer, o.otsNode = ts.Ver, ts.Node }

func (o *Object) setReplicasLocked(r wire.ReplicaSet) { o.owner, o.readers = r.Owner, r.Readers }

// LocalOwnerLocked returns the worker holding the object for a write
// transaction, or NoLocalOwner.
func (o *Object) LocalOwnerLocked() int32 { return o.localOwner }

// PendingLocked returns a copy of the in-flight arbitration record, if any.
func (o *Object) PendingLocked() (PendingOwn, bool) {
	if p := o.pendingRec(); p != nil {
		return *p, true
	}
	return PendingOwn{}, false
}

// HoldsLocked reports whether this node may act at level min (Reader or
// Owner) right now: it has at least that level and no arbitration has
// invalidated the entry — a node's own outstanding request (ORequest) does
// not suspend the rights it already holds.
func (o *Object) HoldsLocked(min wire.AccessLevel) bool {
	return o.level >= min && (o.ostate == OValid || o.ostate == ORequest)
}

// RequestLocked marks this node's own ownership request as outstanding, unless
// an arbitration holds the entry (caller holds Mu), and returns its Holds: the
// Valid version of a replica it may act on, else 0 (R-INV, hint, pending drop).
func (o *Object) RequestLocked() (holds uint64) {
	if o.ostate == OValid {
		o.ostate = ORequest
	}
	if ver, st := o.TSnapshot(); st == TValid && o.HoldsLocked(wire.Reader) {
		return ver
	}
	return 0
}

// SettleRequestLocked is RequestLocked undone for a request that was given up;
// a granted one settles through GrantLocked (caller holds Mu).
func (o *Object) SettleRequestLocked() {
	if o.ostate == ORequest {
		o.ostate = OValid
	}
}

// DriveLocked records the arbitration this node starts driving (caller holds
// Mu and has found no arbitration pending).
func (o *Object) DriveLocked(p PendingOwn) {
	o.setPendingLocked(p)
	o.ostate = ODrive
}

// InvalidateLocked applies an arbiter's INV (caller holds Mu and has decided p
// wins): p supersedes whatever arbitration was pending, and when that was a
// different request this node was driving, a copy of it is returned — the
// loser, whose requester the caller NACKs. An owner that accepts an INV moving
// ownership away gives up its write rights with the ACK (§4.1): the requester
// applies first and may serve writes before the VAL arrives here, so the owner
// is demoted to Reader now; the VAL installs the final level either way.
func (o *Object) InvalidateLocked(p PendingOwn, self wire.NodeID) (loser PendingOwn, lost bool) {
	if old := o.pendingRec(); old != nil && o.ostate == ODrive && old.Driver == self && old.ReqID != p.ReqID {
		loser, lost = *old, true
	}
	o.setPendingLocked(p)
	o.ostate = OInvalid
	if o.level == wire.Owner && p.NewReplicas.LevelOf(self) != wire.Owner {
		o.level = wire.Reader
	}
	return loser, lost
}

// GrantLocked applies a grant (caller holds Mu): ⟨reps, ts⟩ become the entry,
// o_state Valid, no arbitration pending, and this node's level what reps gives
// self. It is the only code that raises a level, and the value moves with it:
// a node that leaves the set drops its replica, one in the set installs val
// unless it already holds a newer version. Refused, changing nothing: a stale
// grant, older than o_ts or the pending arbitration; an unbacked one, a raise
// that would leave the record below the source's val.Version, nothing shipped.
func (o *Object) GrantLocked(self wire.NodeID, ts wire.OTS, reps wire.ReplicaSet, val Shipped) (applied, unbacked bool) {
	if p := o.pendingRec(); ts.Less(o.OTSLocked()) || p != nil && ts.Less(p.TS) {
		return false, false
	}
	if reps.LevelOf(self) > o.level && !val.Has && o.TVersion() < val.Version {
		return false, true
	}
	o.clearPendingLocked()
	o.setReplicasLocked(reps)
	o.setOTSLocked(ts)
	o.ostate = OValid
	was := o.level
	o.level = reps.LevelOf(self)
	switch {
	case o.level == wire.NonReplica:
		if was != wire.NonReplica {
			o.dropLocked()
		}
	case val.Has && val.Version >= o.TVersion():
		o.installLocked(val.Version, val.Data)
	}
	return true, false
}

// GrantPendingLocked applies the pending arbitration as a grant without a
// value (caller holds Mu) and returns a copy of it; applied is false when
// there was none, or when o_ts has since passed it — the arbitration is void
// and dropped.
func (o *Object) GrantPendingLocked(self wire.NodeID) (p PendingOwn, applied bool) {
	pp := o.pendingRec()
	if pp == nil {
		return PendingOwn{}, false
	}
	p = *pp
	if applied, _ = o.GrantLocked(self, p.TS, p.NewReplicas, Shipped{}); !applied {
		o.clearPendingLocked()
		o.ostate = OValid
	}
	return p, applied
}

// PruneLocked is the view change's edit (caller holds Mu): nodes outside live
// leave the replica set — a dead owner leaves the object ownerless until the
// next write takes over (§4.1) — and the pending arbitration's arbiters, new
// set and data source alike. It removes other nodes only (a node is in every
// view it installs), so the level stands.
func (o *Object) PruneLocked(live wire.Bitmap) {
	o.setReplicasLocked(o.ReplicasLocked().Prune(live))
	if p := o.pendingRec(); p != nil {
		p.Arbiters = p.Arbiters.Intersect(live)
		p.NewReplicas = p.NewReplicas.Prune(live)
		if !live.Contains(p.PrevOwner) {
			p.PrevOwner = wire.NoNode
		}
	}
}

// ReplayLocked re-stamps the pending arbitration for an arb-replay in epoch
// among live and returns a copy (caller holds Mu); false when none is pending.
func (o *Object) ReplayLocked(epoch wire.Epoch, live wire.Bitmap) (PendingOwn, bool) {
	p := o.pendingRec()
	if p == nil {
		return PendingOwn{}, false
	}
	p.Epoch = epoch
	p.Arbiters = p.Arbiters.Intersect(live)
	return *p, true
}

// ReclaimLocked re-arms a restarted node as the owner its durable grant
// history says it is (caller holds Mu), in the one case no directory can
// grant it: every driver answered that no replica of the object is live. vouch
// says the recovered value had completed its commit and may be served again.
// o_state returns to Valid unless an arbitration is pending, whose VAL or
// replay settles the entry.
func (o *Object) ReclaimLocked(self wire.NodeID, vouch bool) {
	if vouch {
		o.ValidateLocked(o.TSnapshot()) // whatever version and state the record holds
	}
	o.owner = self
	o.level = wire.Owner
	if o.pendingRec() == nil {
		o.ostate = OValid
	}
}

// AdoptEntryLocked installs one entry of a directory shard snapshot (caller
// holds Mu): only over a strictly older o_ts and never over a pending
// arbitration, so duplicate snapshots and races with live arbitration traffic
// are harmless. It edits the set without deriving this node's level from it,
// on purpose: a snapshot is what another driver knows about the object, not a
// grant to this node — no arbitration named it, no value came with it — and a
// level only ever changes through one.
func (o *Object) AdoptEntryLocked(ts wire.OTS, reps wire.ReplicaSet) bool {
	if o.pendingRec() != nil || !o.OTSLocked().Less(ts) {
		return false
	}
	o.setOTSLocked(ts)
	o.setReplicasLocked(reps)
	return true
}
