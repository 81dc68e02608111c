// Package store is the sharded in-memory object store underlying a Zeus
// node. Each object carries the reliable-commit metadata of §5 (t_state,
// t_version, t_data), the ownership metadata of §4 (o_state, o_ts,
// o_replicas), this node's access level (Table 1), and the local-ownership
// marker used by the multi-threaded local commit of §7.
//
// Zeus's safety argument is an invariant over this one record — a node is a
// reader or the owner of the value it holds — so the record is closed: bar Mu,
// ID and the atomic PendingCommits every field is unexported, and a replica
// changes only through the transitions below, each called with Mu held from
// exactly these protocol steps. The value side (payload, ⟨t_version,
// t_state⟩):
//
//	stage     StageLocked          core.Tx.Commit, core.CreateObjectWithReaders:
//	                               the owner's local commit → next version, Write
//	          StageInvLocked       commit.applyOneLocked: a follower applies an
//	                               R-INV → Invalid unless stale
//	validate  ValidateLocked       commit.completeSlot (every follower acked →
//	                               Write → Valid), commit.handleVal (R-VAL →
//	                               Invalid → Valid): only if still current
//	install   installLocked        inside grant and reclaim only: a committed
//	                               value that arrived whole
//	recover   RecoverLocked        core.installRecovered: WAL/snapshot replay of
//	                               an object this node owned → Invalid hint, no
//	                               yield, no arbitration, NonReplica
//	drop      dropLocked           inside grant only: this node left the replica
//	                               set or the object was deleted → no payload,
//	                               version 0, no yield
//
// The ownership side (o_state, o_ts, o_replicas, the pending arbitration, the
// access level; ownership.go):
//
//	request    RequestLocked, SettleRequestLocked  ownership.run, resetRequestState
//	arbitrate  DriveLocked                         ownership.handleReq: the driver's REQ
//	           InvalidateLocked                    ownership.handleInv: an arbiter's INV
//	grant      GrantLocked         ownership.applyAsRequester (every mode, a delete
//	                               at its driver included; refused when stale or
//	                               unbacked), cluster.Seed
//	           GrantPendingLocked  ownership.handleVal, handleInv (the VAL came
//	                               first), checkRecoveryCompleteLocked
//	prune      PruneLocked, ReplayLocked  ownership.PruneDead, ArbReplayAll: the
//	                               view change's edits
//	reclaim    ReclaimLocked       core.reclaimOne: a restarted owner whose object
//	                               no directory knows (no replica live anywhere)
//	adopt      AdoptEntryLocked    directory.handleState: a shard snapshot's entry
//
// GrantLocked is the one body that assigns replica set, o_ts, o_state and level
// together, and the only code that raises a level; RecoverLocked (a level only
// falls there) and ReclaimLocked (the level comes from the node's own durable
// grant history) are its two variants. Everything else reads — PendingLocked,
// like every transition that returns an arbitration record, a copy: the
// record lives in the side table, and no pointer into it leaves this package.
//
// What holds after any sequence of transitions (TestObjectTransitions,
// TestOwnershipInvariantsHold): the payload slice is only ever replaced whole;
// o_ts never decreases in a record's life, which
// RecoverLocked starts; an arbitration is pending iff o_state is Drive or
// Invalid; a level rises only by grant — a restarted owner takes its objects
// back through the directory like any requester — or, where no replica is live
// to grant from, by reclaim; the value moves with it — a node that leaves the set drops its replica, a grant that does not
// list this node installs nothing, recovery installs Invalid — so through
// these transitions a NonReplica record never reads as ⟨Valid, payload⟩. A
// replica whose node ACKed the arbitration that drops it is leaving
// (TLeaving) until a grant settles it, and only then: it serves nothing,
// because the requester applies first and commits past it. (The
// commit engine's transitions are level-blind: an R-INV that finds a replica
// already dropped leaves a payload behind a NonReplica level, which no read
// path serves and the next grant's install supersedes.) The converse holds
// too: GrantLocked refuses a raise that would leave the record below the data
// source's version with nothing shipped, and changes nothing.
//
// A replica costs its 64-byte record (TestObjectSize) and its index slots, 76
// bytes an object at 30 000 (TestStoreBytesPerObject). A transfer-fairness
// yield and a pending arbitration are one entry of a side table outside the
// record (coldTable), there only while it holds either; two bits of o_state's
// byte say whether it does, so no hot path looks it up. The payload is a
// pointer to the bytes its writer handed over and their 32-bit length
// (setDataLocked, DataLocked: the package's one use of unsafe), since a
// replace-only payload never uses a capacity.
//
// The index (TestStoreIndexMatchesMap): a shard maps ids to records in an
// open-addressing table of pointers, 8 bytes a slot where a Go map pays 16 and
// a control byte. An id's home slot is the 32 bits of its hash just below the
// shard's, scaled to the table's length (fastrange); a collision probes
// linearly, wrapping at the end, comparing the candidate's ID (fixed once the
// record is published). Before the table is 3/4 full it grows to at least half
// as long again, so it is about half full after, and takes every slot of the
// size class that length rounds up to
// (TestShardTablesFillTheirSizeClass): a table over 512 bytes also carries
// Go's 8-byte malloc header, so 1 024 slots would spill into a 9 472-byte
// allocation where 671 fill their 5 376-byte class. A probe always ends at the
// id or an empty slot. Delete shifts the rest of the probe run back over the
// hole instead of leaving a tombstone, so every entry stays reachable from its
// home.
package store

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"zeus/internal/shardmap"
	"zeus/internal/wire"
)

// TState is the reliable-commit state of an object replica (§5).
type TState uint8

const (
	// TValid: the replica holds a reliably committed value and may serve
	// reads and read-only transactions.
	TValid TState = iota
	// TInvalid: an R-INV has been applied; the new value is not yet
	// reliably committed, so neither old nor new value may be returned.
	TInvalid
	// TWrite: the owner locally committed an update whose reliable commit
	// is pending.
	TWrite

	// TLeaving is a flag on any of the three, not a state of its own: this
	// node ACKed an arbitration that drops its replica (InvalidateLocked),
	// whose requester applies it first and commits the next versions without
	// this node, so the replica serves nothing — no read path accepts a state
	// but TValid, and TValid|TLeaving is not TValid — until the grant settles
	// it: dropped, or, had the arbitration lost, kept and the flag cleared.
	// The commit transitions carry it over.
	TLeaving TState = 4
)

func (s TState) String() string {
	if s&TLeaving != 0 {
		return (s &^ TLeaving).String() + "+leaving"
	}
	switch s {
	case TValid:
		return "Valid"
	case TInvalid:
		return "Invalid"
	case TWrite:
		return "Write"
	default:
		return "TState(?)"
	}
}

// NoLocalOwner marks an object not currently held by any local worker.
const NoLocalOwner int16 = -1

// Object is one object replica (or bare directory entry) at a node. Fields
// are protected by Mu; engines lock the object across multi-field updates.
// The record fills the 64-byte allocation size class (TestObjectSize): every
// byte is paid once per replica, so the small fields sit together, nothing is
// stored twice, what a replica uses rarely — transfer fairness, an
// arbitration in flight — lives in a side table (coldState), the payload is a
// pointer and a 32-bit length, and o_ts and o_replicas are unpacked, their
// node ids beside the small fields (wire.OTS and wire.ReplicaSet each pad a
// 2-byte node id to 8).
type Object struct {
	Mu sync.Mutex

	ID wire.ObjectID

	// data and n are the object payload, the adopted bytes (setDataLocked;
	// read back through DataLocked, nil when empty). It is REPLACE-ONLY: every
	// transition installs a freshly allocated (or freshly received) payload
	// under Mu, and no code path ever mutates a published backing array in
	// place — local commits install the slice the transaction's Set adopted
	// (its caller handed it over, capacity clipped), R-INV apply installs the
	// decoded update slab, ownership transfer installs the ACK payload, a seed
	// the slice cluster.Seed adopted, drops install nothing. This contract is
	// what makes the no-copy read paths safe, and what lets the payload drop
	// the capacity a slice would carry: SnapshotRef, DataLocked, the
	// transaction layer's owner-local read buffers, the ownership ACK
	// piggyback and the zero-copy FabricMem delivery all alias the array after
	// Mu is released. TestSnapshotRefStableAcrossReplace and
	// TestPayloadIsTheAdoptedArray pin it. Every payload a node takes in is at
	// most wire.MaxBlob bytes (Tx.Set, cluster.Seed and the decoders refuse
	// more), so n fits 32 bits.
	data unsafe.Pointer

	// tsv is the reliable-commit metadata ⟨t_version, t_state⟩ (meaningful
	// on owner and readers), packed into one atomic word (version<<3 |
	// state, TLeaving included) and stored nowhere else: written by the transitions under Mu,
	// read through TVersion/TState or, without Mu, through TSnapshot — the
	// read-only re-validation's seqlock-style check, where the single-word
	// payload makes the double read degenerate to one consistent load.
	tsv atomic.Uint64

	// The ownership side (§4): o_ts ⟨otsVer, otsNode⟩, o_replicas ⟨owner,
	// readers⟩, o_state, the pending arbitration (coldState.pending), and this
	// node's access level. Written only by the transitions.
	otsVer  uint64
	readers wire.Bitmap

	n uint32

	// PendingCommits counts reliable commits involving this object that
	// have not been validated yet; the owner NACKs ownership requests
	// while it is non-zero (§4.1, §5.2). Writers (the local-commit path and
	// the commit engine's slot completion) always also hold Mu, so the
	// counter stays consistent with t_state; it is atomic so the ownership
	// engine's HasPendingCommit hook can read it without taking Mu — the
	// hook runs with other object locks held, and a lock-free read keeps
	// pending checks off every engine-global structure.
	PendingCommits atomic.Int32

	otsNode wire.NodeID
	owner   wire.NodeID

	// localOwner is the local worker currently holding the object for a
	// write transaction (§7's local ownership), or NoLocalOwner; a node has
	// at most 256 workers (core.MaxWorkers).
	localOwner int16

	// ostate is o_state in its low bits, and in hasYield and hasPending
	// which parts of a cold state the side table holds for the record.
	ostate OState
	level  wire.AccessLevel
}

// coldState is what a replica uses rarely — the transfer-fairness yield and
// the arbitration in flight — held outside the record, in coldTable, only
// while it holds either (TestColdEntriesLastOnlyWhileNeeded).
type coldState struct {
	// yieldUntil implements transfer fairness (§6.2 starvation avoidance):
	// after NACKing an ownership request for pending commits, the owner
	// briefly defers granting *new* local write ownership of this object
	// (YieldLocalLocked), so a back-to-back local write stream cannot starve a
	// remote requester forever — the pipeline drains and the requester's next
	// probe wins. A monoNow deadline; zero means no yield. A NACK is rare (none
	// on a workload whose writes stay local), so the yield lives here rather
	// than in every record.
	yieldUntil int64

	// pending is the in-flight arbitration, applied at REQ/INV time and
	// finalized (or superseded) at VAL time, valid iff arbitrating. An object
	// is arbitrated only while it moves, so it too lives here.
	pending     PendingOwn
	arbitrating bool
}

// The bits of Object.ostate above o_state that say what the side table holds
// for the record; a record with neither has no entry.
const (
	hasYield   OState = 1 << 6
	hasPending OState = 1 << 7
	coldBits          = hasYield | hasPending
)

// coldTable holds the cold states of every store in the process, keyed by
// record and striped by its id. A stripe's lock is a leaf, taken under the
// record's Mu, and its map keeps its buckets, so an entry costs no allocation
// once its stripe has held as many at once (coldState stays within the 128
// bytes a map stores in place, TestObjectSize). Only a record whose ostate has
// a cold bit set looks it up, so the hot paths — a local grant, a grant that
// finds no arbitration — stay a bit test. An entry keeps its record alive: a
// store dropped while records of it still yield or arbitrate (an in-process
// restart mid-move) leaves theirs behind.
var coldTable = shardmap.NewStriped[*Object, coldState](func(o *Object) uint64 { return hash(o.ID) })

// coldLocked returns the record's cold state, the zero one when the table
// holds no entry for it (caller holds Mu).
func (o *Object) coldLocked() coldState {
	if o.ostate&coldBits == 0 {
		return coldState{}
	}
	c, _ := coldTable.Get(o)
	return c
}

// putColdLocked makes c the record's cold state (caller holds Mu): an entry
// while it holds a yield or an arbitration, none once it holds neither, and
// ostate's cold bits saying which.
func (o *Object) putColdLocked(c coldState) {
	var has OState
	if c.yieldUntil != 0 {
		has |= hasYield
	}
	if c.arbitrating {
		has |= hasPending
	}
	switch {
	case has != 0:
		coldTable.Put(o, c)
	case o.ostate&coldBits != 0:
		coldTable.Delete(o)
	}
	o.ostate = o.ostate&^coldBits | has
}

// forgetYieldLocked clears the transfer-fairness yield (caller holds Mu),
// which only an owner's local writes obey.
func (o *Object) forgetYieldLocked() {
	if o.ostate&hasYield != 0 {
		c := o.coldLocked()
		c.yieldUntil = 0
		o.putColdLocked(c)
	}
}

// setDataLocked adopts b as the payload without copying it (caller holds
// Mu). A payload is clipped and replace-only, so the capacity word a slice
// would carry is never used.
func (o *Object) setDataLocked(b []byte) {
	o.data, o.n = unsafe.Pointer(unsafe.SliceData(b)), uint32(len(b))
}

// StageLocked is the owner's local commit (caller holds Mu): data becomes the
// next version, in state Write, and that version is returned.
func (o *Object) StageLocked(data []byte) uint64 {
	ver := o.TVersion() + 1
	o.setDataLocked(data)
	o.setTLocked(ver, TWrite|o.TState()&TLeaving)
	return ver
}

// StageInvLocked applies one update of an R-INV at a follower (caller holds
// Mu): a newer version replaces the payload and leaves the replica Invalid; a
// stale one — a duplicate, or an R-INV overtaken by a later one or by an
// ownership install — touches neither.
func (o *Object) StageInvLocked(ver uint64, data []byte) {
	if ver > o.TVersion() {
		o.setDataLocked(data)
		o.setTLocked(ver, TInvalid|o.TState()&TLeaving)
	}
}

// ValidateLocked flips the replica to Valid iff it still holds exactly
// ⟨ver, from⟩ (caller holds Mu), TLeaving aside, which it keeps; any other
// version or state means a later transition owns the record and the call is
// a no-op.
func (o *Object) ValidateLocked(ver uint64, from TState) {
	if v, st := o.TSnapshot(); v == ver && st&^TLeaving == from&^TLeaving {
		o.setTLocked(ver, TValid|st&TLeaving)
	}
}

// installLocked installs a committed value that arrived whole (caller holds
// Mu, and has checked ver is not below t_version): payload and ⟨ver, Valid⟩,
// taken as given — the sender vouches for the version it shipped.
func (o *Object) installLocked(ver uint64, data []byte) {
	o.setDataLocked(data)
	o.setTLocked(ver, TValid)
}

// RecoverLocked installs what the WAL and snapshot remembered of an object
// this node owned (caller holds Mu): the value as an Invalid hint, served to
// nobody until the reclaim validates it, and ⟨ts, reps⟩ as an ownership hint
// under level NonReplica. A remembered "self is owner" is rewritten to NoNode
// — ownership may have migrated while the node was down — and the node
// requests the object back (and, when no replica is live anywhere,
// ReclaimLocked it). It starts a record's life (a fresh store, before any
// handler exists), so it is the one transition that takes o_ts as given, and
// no yield or arbitration survives it.
func (o *Object) RecoverLocked(self wire.NodeID, ver uint64, data []byte, ts wire.OTS, reps wire.ReplicaSet) {
	o.setDataLocked(data)
	o.setTLocked(ver, TInvalid)
	o.putColdLocked(coldState{})
	if reps.Owner == self {
		reps.Owner = wire.NoNode
	}
	o.setReplicasLocked(reps)
	o.setOTSLocked(ts)
	o.ostate, o.level = OValid, wire.NonReplica // no cold bits: no entry
}

// dropLocked discards the replica (caller holds Mu) when this node leaves the
// object's replica set or the object is deleted: no payload, version 0 — a
// later re-install must not meet a stale version — and no yield, which only an
// owner's local writes obey. Its one caller, GrantLocked, has settled
// the arbitration already, so the table keeps no entry for the record.
func (o *Object) dropLocked() {
	o.setDataLocked(nil)
	o.setTLocked(0, TValid)
	o.forgetYieldLocked()
}

// setTLocked is the one writer of the packed ⟨t_version, t_state⟩ word, which
// is what keeps a version and its state from ever being observed apart.
func (o *Object) setTLocked(ver uint64, st TState) {
	o.tsv.Store(ver<<3 | uint64(st))
}

// GrantLocalLocked attempts to make worker the local owner (caller holds Mu).
// It succeeds only if the object is free: a worker runs one transaction, which
// asks once per object, so a second ask is refused like any other. A grant is
// also refused while the transfer-fairness yield (YieldLocalLocked) is
// active; a worker that already holds the object keeps it. The first grant
// after a yield ran out clears it, and the side table's entry with it if the
// yield was all it held. Without a yield it reads no more than the record.
func (o *Object) GrantLocalLocked(worker int16) bool {
	if o.localOwner != NoLocalOwner {
		return false
	}
	if o.ostate&hasYield != 0 {
		c := o.coldLocked()
		if monoNow() < c.yieldUntil {
			return false
		}
		c.yieldUntil = 0
		o.putColdLocked(c)
	}
	o.localOwner = worker
	return true
}

// YieldLocalLocked refuses new local write grants for the next d (caller
// holds Mu): the transfer-fairness yield, see coldState.yieldUntil.
func (o *Object) YieldLocalLocked(d time.Duration) {
	c := o.coldLocked()
	c.yieldUntil = monoNow() + int64(d)
	o.putColdLocked(c)
}

// monoNow is the monotonic clock in nanoseconds since process start: a
// deadline on it is 8 bytes per object where a time.Time is 24.
func monoNow() int64 { return int64(time.Since(processStart)) }

var processStart = time.Now()

// ReleaseLocal releases local ownership if held by worker.
func (o *Object) ReleaseLocal(worker int16) {
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.localOwner == worker {
		o.localOwner = NoLocalOwner
	}
}

// TVersion returns t_version. Stable only while the caller holds Mu.
func (o *Object) TVersion() uint64 { return o.tsv.Load() >> 3 }

// TState returns t_state, TLeaving included. Stable only while the caller
// holds Mu.
func (o *Object) TState() TState { return TState(o.tsv.Load() & 7) }

// TSnapshot returns ⟨t_version, t_state⟩ from one atomic load, without
// taking Mu. Because both ride in a single word, the value is always a
// consistent pair — the read-only re-validation path uses this instead of
// the object lock.
func (o *Object) TSnapshot() (uint64, TState) {
	w := o.tsv.Load()
	return w >> 3, TState(w & 7)
}

// SnapshotRef returns (t_state, t_version, access level, data) WITHOUT
// copying the payload — the transaction layer's read path. The returned
// slice aliases the object's current payload, which is safe to read
// indefinitely thanks to the replace-only contract (see the data field): a
// later commit installs a new slice and never touches the array this
// snapshot points at. Callers must uphold the same rule and never write
// through the result.
func (o *Object) SnapshotRef() (TState, uint64, wire.AccessLevel, []byte) {
	o.Mu.Lock()
	defer o.Mu.Unlock()
	ver, st := o.TSnapshot()
	return st, ver, o.level, o.DataLocked()
}

// DataLocked returns the payload without copying it (caller holds Mu), nil
// when there is none. Like SnapshotRef's result it may be read after Mu is
// released and must never be written through (zeuslint frozen).
func (o *Object) DataLocked() []byte {
	if o.n == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(o.data), o.n)
}

// shardCount scales with the host (the same policy as the ownership
// engine's stripes — see shardmap.ScaledCount).
var shardCount = shardmap.ScaledCount(runtime.GOMAXPROCS(0))

// shard is one lock and one index (see the package doc).
type shard struct {
	mu        sync.RWMutex
	slots     []*Object // every slot of the allocation's size class; nil is empty
	shardBits uint      // how many top hash bits chose the shard (see home)
	n         int
}

// Store is a sharded map of objects.
type Store struct {
	shift  uint
	shards []shard
}

// New creates an empty store.
func New() *Store {
	n := shardCount
	s := &Store{
		// Top log2(n) bits of the mixed hash index the shard.
		shift:  64 - uint(bits.TrailingZeros(uint(n))),
		shards: make([]shard, n),
	}
	for i := range s.shards {
		s.shards[i].slots = make([]*Object, 8) // the 64-byte class, full
		s.shards[i].shardBits = 64 - s.shift
	}
	return s
}

// hash is Fibonacci hashing, which spreads dense benchmark key ranges.
func hash(id wire.ObjectID) uint64 { return uint64(id) * 0x9E3779B97F4A7C15 }

func (s *Store) shard(id wire.ObjectID) (*shard, uint64) {
	h := hash(id)
	return &s.shards[h>>s.shift], h
}

// home is the slot where the probe for hash h starts: the 32 hash bits below
// the shard's, scaled to the table's length by a multiply and a shift
// (fastrange), which works for any length.
func (sh *shard) home(h uint64) int {
	return int(uint64(uint32(h<<sh.shardBits>>32)) * uint64(len(sh.slots)) >> 32)
}

// next is the slot after i, wrapping at the end of the table.
func (sh *shard) next(i int) int {
	if i++; i == len(sh.slots) {
		return 0
	}
	return i
}

// find returns the slot holding id, or the empty slot ending its probe run
// (caller holds mu).
func (sh *shard) find(id wire.ObjectID, h uint64) int {
	i := sh.home(h)
	for o := sh.slots[i]; o != nil && o.ID != id; o = sh.slots[i] {
		i = sh.next(i)
	}
	return i
}

// grow makes the table at least half as long again and takes every slot of
// the size class that rounds up to (caller holds mu for writing).
func (sh *shard) grow() {
	old := sh.slots
	sh.slots = slices.Grow([]*Object(nil), len(old)+len(old)/2)
	sh.slots = sh.slots[:cap(sh.slots)]
	for _, o := range old {
		if o != nil {
			sh.slots[sh.find(o.ID, hash(o.ID))] = o
		}
	}
}

// Get returns the object if present.
func (s *Store) Get(id wire.ObjectID) (*Object, bool) {
	sh, h := s.shard(id)
	sh.mu.RLock()
	o := sh.slots[sh.find(id, h)]
	sh.mu.RUnlock()
	return o, o != nil
}

// GetOrCreate returns the object, creating a zero-value entry (non-replica,
// no owner) if absent. created reports whether insertion happened.
func (s *Store) GetOrCreate(id wire.ObjectID) (o *Object, created bool) {
	sh, h := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := sh.find(id, h)
	if o := sh.slots[i]; o != nil {
		return o, false
	}
	if 4*(sh.n+1) > 3*len(sh.slots) {
		sh.grow()
		i = sh.find(id, h)
	}
	o = &Object{
		ID:         id,
		level:      wire.NonReplica,
		owner:      wire.NoNode,
		localOwner: NoLocalOwner,
	}
	sh.slots[i] = o
	sh.n++
	return o, true
}

// Delete removes the object. Holders of the pointer — a transaction resolves
// an object once and validates against it until it commits — must not
// mistake the orphan for a live replica, so it is left Invalid and without an
// access level: read validation and the local-commit ownership check both
// fail on it, exactly as a lookup of the missing id would. Nothing arbitrates
// or yields on it any more, so the side table keeps no entry for it. The
// caller must not hold the object's Mu.
func (s *Store) Delete(id wire.ObjectID) {
	sh, h := s.shard(id)
	sh.mu.Lock()
	i := sh.find(id, h)
	o := sh.slots[i]
	if o == nil {
		sh.mu.Unlock()
		return
	}
	// Move back over the hole every entry of the run whose home is not in
	// (hole, j], cyclically: a probe from there would stop at the hole.
	n := len(sh.slots)
	for j := sh.next(i); sh.slots[j] != nil; j = sh.next(j) {
		if (j-sh.home(hash(sh.slots[j].ID))+n)%n >= (j-i+n)%n {
			sh.slots[i], i = sh.slots[j], j
		}
	}
	sh.slots[i] = nil
	sh.n--
	sh.mu.Unlock()
	o.Mu.Lock()
	o.level = wire.NonReplica
	o.setTLocked(o.TVersion(), TInvalid)
	o.putColdLocked(coldState{})
	o.ostate = OValid
	o.Mu.Unlock()
}

// Len returns the number of objects stored.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += s.shards[i].n
		s.shards[i].mu.RUnlock()
	}
	return n
}

// ForEach calls fn for every object. fn must not call back into the store.
// Iteration order is unspecified; objects inserted concurrently may or may
// not be visited.
func (s *Store) ForEach(fn func(*Object) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		objs := slices.Clone(sh.slots)
		sh.mu.RUnlock()
		for _, o := range objs {
			if o != nil && !fn(o) {
				return
			}
		}
	}
}
