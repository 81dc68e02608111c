// Package storage defines the pluggable persistence layer behind a Zeus
// node: an append-only WAL of committed R-VALs and ownership grants plus
// periodic object snapshots, behind a small Storage interface with two
// drivers (memstorage for tests and in-process clusters, filestorage for
// zeusd). The split mirrors the istorage/istorageimpl shape: this package
// owns the record model, the replay rules and the group-commit front end;
// drivers only move bytes durably.
//
// Durability contract (enforced by the zeuslint frozen and ackdurable
// analyzers):
//
//   - A Record handed to Append is frozen: the WAL may retain and encode it
//     asynchronously, so callers must not mutate it (or the Data it aliases)
//     afterwards. Aliasing store data is safe because object Data is
//     replace-only.
//   - Append returns only once the records are durable at the driver's
//     level (fsynced for filestorage). Apply-side protocol code must not
//     acknowledge a commit before the Append call covering it returns.
//
// Replay is idempotent and version/timestamp monotonic, so a snapshot that
// overlaps the tail of the WAL (the snapshot scan races concurrent appends
// into the rolled segment) recovers to the same state.
package storage

import "zeus/internal/wire"

// RecKind distinguishes WAL record types.
type RecKind uint8

const (
	// RecInv records a replicated write applied from an R-INV: the new
	// version and data, not yet known committed. Followers persist it
	// before acking so an acked write can never be forgotten.
	RecInv RecKind = iota + 1
	// RecCommit records that a version became valid (R-VAL locally applied
	// or coordinator validation). Coordinator-side records carry the data
	// (the coordinator never logged a RecInv for its own write); follower
	// records carry only the version.
	RecCommit
	// RecGrant records an applied ownership grant: the object's new
	// timestamp, replica set and this node's access level.
	RecGrant
)

func (k RecKind) String() string {
	switch k {
	case RecInv:
		return "inv"
	case RecCommit:
		return "commit"
	case RecGrant:
		return "grant"
	default:
		return "rec?"
	}
}

// Record is one WAL entry. Fields beyond (Kind, Obj) are kind-dependent;
// unused fields are zero. Records are immutable after Append.
type Record struct {
	Kind     RecKind
	Obj      wire.ObjectID
	Version  uint64
	Data     []byte // RecInv always; RecCommit on the coordinator
	TS       wire.OTS
	Replicas wire.ReplicaSet
	Level    wire.AccessLevel
}

// SnapObject is one object in a snapshot: the store's durable fields at
// scan time. Valid distinguishes committed data from a staged (invalidated
// but not yet validated) version.
type SnapObject struct {
	Obj      wire.ObjectID
	Version  uint64
	Data     []byte
	Valid    bool
	TS       wire.OTS
	Replicas wire.ReplicaSet
	Level    wire.AccessLevel
}

// Storage is the driver interface. Implementations must be safe for
// concurrent use; Append and Snapshot may be called concurrently with each
// other (drivers serialize internally).
type Storage interface {
	// Append durably persists the records, in order. It returns only once
	// they would survive a crash of this process.
	Append(recs []Record) error

	// Snapshot persists a full object snapshot and retires WAL segments
	// older than it. The driver first rolls to a fresh WAL segment, then
	// invokes scan, so any record appended after the roll is either in the
	// snapshot, in a retained segment, or both — never lost. scan must
	// call emit once per object.
	Snapshot(scan func(emit func(SnapObject) error) error) error

	// Recover replays snapshot + WAL into a recovered image. Call before
	// the first Append of a process lifetime. Recover also advances the
	// store's incarnation counter (durably, for durable drivers) and
	// reports it in Recovered.Incarnation, so two process lifetimes over
	// the same store can never observe the same value.
	Recover() (*Recovered, error)

	// Close releases driver resources. Appends after Close fail.
	Close() error
}

// RecoveredObject is the replayed durable state of one object.
type RecoveredObject struct {
	Version  uint64
	Data     []byte
	Valid    bool // false: staged R-INV whose commit outcome is unknown
	TS       wire.OTS
	Replicas wire.ReplicaSet
	Level    wire.AccessLevel
}

// Recovered is the result of WAL + snapshot replay.
type Recovered struct {
	Objects map[wire.ObjectID]*RecoveredObject
	// Records counts WAL records replayed on top of the snapshot.
	Records int
	// Grants counts RecGrant records replayed (for "no lost grants"
	// assertions in recovery tests).
	Grants int
	// Incarnation is this process lifetime's strictly-increasing sequence
	// number over the store (1 for the first lifetime). The commit engine
	// stamps it into wire.PipeID.Incar so a crashed-and-restarted
	// coordinator can never alias its previous life's pipelines at the
	// followers, even when the restart beat the failure detector and the
	// view epoch never bumped.
	Incarnation uint64
}

// NewRecovered returns an empty recovery image for drivers to fill.
func NewRecovered() *Recovered {
	return &Recovered{Objects: make(map[wire.ObjectID]*RecoveredObject)}
}

// ApplySnap installs one snapshot object into the image. Snapshot objects
// are applied before WAL records.
func (r *Recovered) ApplySnap(s SnapObject) {
	r.Objects[s.Obj] = &RecoveredObject{
		Version:  s.Version,
		Data:     s.Data,
		Valid:    s.Valid,
		TS:       s.TS,
		Replicas: s.Replicas,
		Level:    s.Level,
	}
}

// ApplyRecord replays one WAL record. Application is idempotent and
// monotonic in (Version, TS), so replaying records already reflected in the
// snapshot is harmless.
func (r *Recovered) ApplyRecord(rec Record) {
	o := r.Objects[rec.Obj]
	if o == nil {
		o = &RecoveredObject{Replicas: wire.ReplicaSet{Owner: wire.NoNode}}
		r.Objects[rec.Obj] = o
	}
	r.Records++
	switch rec.Kind {
	case RecInv:
		if rec.Version > o.Version {
			o.Version = rec.Version
			o.Data = rec.Data
			o.Valid = false
		}
	case RecCommit:
		switch {
		case rec.Version == o.Version:
			o.Valid = true
			if rec.Data != nil {
				o.Data = rec.Data
			}
		case rec.Version > o.Version:
			// A commit for a version we never staged: install what we
			// have. Without data the object stays invalid and the reclaim
			// fetches the value from a live replica.
			o.Version = rec.Version
			o.Data = rec.Data
			o.Valid = rec.Data != nil
		}
	case RecGrant:
		r.Grants++
		if !rec.TS.Less(o.TS) {
			o.TS = rec.TS
			o.Replicas = rec.Replicas
			o.Level = rec.Level
		}
	}
}
