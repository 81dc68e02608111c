// Package directory is the sharded ownership directory (§6.2): the
// control-plane subsystem that decides, per object, which nodes arbitrate
// ownership requests.
//
// The paper's evaluation replicates the directory across three fixed nodes;
// at scale that turns the directory into the coordination bottleneck — every
// ownership REQ for every object funnels through the same three arbiters.
// This package hash-partitions the directory into S shards. Each shard is
// driven by a small driver set (three nodes by default) chosen by rendezvous
// hashing from the live view, and the shard→drivers placement map is part of
// the replicated view-service state (wire.VSState.Placement): placement is
// quorum-committed, versioned by the membership epoch, and survives view
// changes and view-leader takeover exactly like membership itself.
//
// Service is the subsystem. It resolves placement from the node's membership
// agent (one atomic load on the REQ path), and heals driver churn: when a
// placement change makes this node a NEW driver of a shard (the previous
// driver crashed, or a joined node ranked into the set), the service pulls
// the shard's directory metadata — replica sets and ownership timestamps,
// never object data — from the surviving drivers (DIR-PULL / DIR-STATE),
// NACKing ownership REQs for that shard until the first snapshot lands
// (Ready). In-flight arbitrations need no transfer at all: every arbiter
// stores the full pending record, so the existing arb-replay path completes
// them per shard.
package directory

import (
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// Directory resolves object → shard → arbitration drivers for the ownership
// engine. Service is the only implementation a node runs; the interface is
// the seam the ownership engine's unit tests put a fixed-driver fake behind.
type Directory interface {
	// Shards returns the shard count of the current placement.
	Shards() int
	// ShardOf maps an object to its directory shard.
	ShardOf(obj wire.ObjectID) int
	// DriversFor returns the driver set of obj's shard (not live-filtered;
	// callers intersect with the view).
	DriversFor(obj wire.ObjectID) wire.Bitmap
	// DrivesShard reports whether n drives obj's shard.
	DrivesShard(n wire.NodeID, obj wire.ObjectID) bool
	// Ready reports whether this node may drive obj's shard right now (a
	// new driver is not ready until it synced the shard's metadata).
	Ready(obj wire.ObjectID) bool
}

// syncTimeout bounds how long a newly assigned shard may wait for a DIR-STATE
// snapshot before the driver gives up and serves with what it has (liveness
// backstop: all snapshot sources may be dead, in which case the metadata is
// reconstructed lazily through arbitrations).
const syncTimeout = 250 * time.Millisecond

// Stats counts Service activity (tests and diagnostics).
type Stats struct {
	Pulls       uint64 // DIR-PULL rounds issued (shards this node newly drives)
	Synced      uint64 // shards healed by a DIR-STATE snapshot
	ForcedReady uint64 // shards or suspects force-readied by the timeout backstop
	Entries     uint64 // directory entries installed from snapshots
	Syncing     int    // shards currently awaiting a snapshot
	Suspect     int    // objects awaiting an in-flight arbitration's outcome
}

// Service is one node's directory resolver plus the shard-sync engine.
type Service struct {
	self  wire.NodeID
	st    *store.Store
	tr    transport.Transport
	agent *viewsvc.Agent

	mu      sync.Mutex
	syncing map[int]wire.Epoch // shard → placement epoch of the pending pull
	// suspect holds objects whose snapshot entry carried an in-flight
	// arbitration (DirEntry.Pending): the applied state this node synced
	// may be superseded the moment that arbitration's replay completes, so
	// this node refuses to DRIVE those objects (Ready=false) until it has
	// observed the outcome — the replay reaches it directly, because
	// arb-replays address the object's current drivers — or the backstop
	// timer fires. Keyed to the snapshot's o_ts: the suspicion lifts once
	// the local entry advances past it (or holds the pending itself).
	suspect  map[wire.ObjectID]wire.OTS
	suspectN atomic.Int32
	syncN    atomic.Int32 // fast-path probe: len(syncing) without the lock
	// diffed is the placement epoch viewChanged last processed. Ready is
	// answered pessimistically while the visible placement is newer: the
	// replicated placement becomes visible (one atomic store at the agent)
	// strictly BEFORE the view-change callback chain reaches viewChanged,
	// and in that window a REQ handler would otherwise see
	// DrivesShard=true with an unpopulated syncing set — arbitrating a
	// freshly assigned shard from an empty entry, the exact hole Ready
	// exists to close.
	diffed atomic.Uint32

	stPulls   atomic.Uint64
	stSynced  atomic.Uint64
	stForced  atomic.Uint64
	stEntries atomic.Uint64
}

// NewService builds the sharded directory for one node and hooks it into the
// membership agent's view-change stream. Call Register to install its
// DIR-PULL / DIR-STATE handlers before traffic flows.
func NewService(self wire.NodeID, st *store.Store, tr transport.Transport, agent *viewsvc.Agent) *Service {
	s := &Service{
		self:    self,
		st:      st,
		tr:      tr,
		agent:   agent,
		syncing: make(map[int]wire.Epoch),
		suspect: make(map[wire.ObjectID]wire.OTS),
	}
	s.diffed.Store(uint32(s.agent.Placement().Epoch))
	agent.OnChange(func(_, _ wire.View, _ wire.Bitmap) { s.viewChanged() })
	return s
}

// Register installs the service's handlers on the router. The sync kinds are
// unkeyed, so they stay on the inline dispatch path (they are rare).
func (s *Service) Register(r *transport.Router) {
	r.HandleMany(s.Handle, wire.KindDirPull, wire.KindDirState)
}

// Stats returns a snapshot of counters.
func (s *Service) Stats() Stats {
	return Stats{
		Pulls:       s.stPulls.Load(),
		Synced:      s.stSynced.Load(),
		ForcedReady: s.stForced.Load(),
		Entries:     s.stEntries.Load(),
		Syncing:     int(s.syncN.Load()),
		Suspect:     int(s.suspectN.Load()),
	}
}

// Directory interface.

func (s *Service) Shards() int                   { return len(s.agent.Placement().Shards) }
func (s *Service) ShardOf(obj wire.ObjectID) int { return s.agent.Placement().ShardOf(obj) }
func (s *Service) DriversFor(obj wire.ObjectID) wire.Bitmap {
	return s.agent.Placement().DriversFor(obj)
}
func (s *Service) DrivesShard(n wire.NodeID, obj wire.ObjectID) bool {
	return s.agent.Placement().Drives(n, obj)
}

// Ready reports whether this node may drive obj's shard: false while a
// freshly assigned shard awaits its metadata snapshot, while a newly
// visible placement has not been diffed yet (see diffed), and for the
// specific objects whose snapshot flagged an in-flight arbitration (see
// suspect) until the outcome is visible locally.
func (s *Service) Ready(obj wire.ObjectID) bool {
	p := s.agent.Placement()
	if wire.Epoch(s.diffed.Load()) != p.Epoch {
		return false
	}
	if s.suspectN.Load() > 0 && !s.clearedSuspect(obj) {
		return false
	}
	if s.syncN.Load() == 0 {
		return true
	}
	sh := p.ShardOf(obj)
	s.mu.Lock()
	_, syncing := s.syncing[sh]
	s.mu.Unlock()
	return !syncing
}

// clearedSuspect reports whether obj is clear of suspicion, lifting it when
// the local entry caught up: either the in-flight arbitration reached this
// node (a pending record — the ownership engine then handles it natively) or
// its completion did (o_ts advanced past the snapshot's).
func (s *Service) clearedSuspect(obj wire.ObjectID) bool {
	s.mu.Lock()
	ts, bad := s.suspect[obj]
	s.mu.Unlock()
	if !bad {
		return true
	}
	o, ok := s.st.Get(obj)
	if !ok {
		return false
	}
	o.Mu.Lock()
	_, arbitrating := o.PendingLocked()
	caughtUp := arbitrating || ts.Less(o.OTSLocked())
	o.Mu.Unlock()
	if !caughtUp {
		return false
	}
	s.mu.Lock()
	if _, still := s.suspect[obj]; still {
		delete(s.suspect, obj)
		s.suspectN.Store(int32(len(s.suspect)))
	}
	s.mu.Unlock()
	return true
}

// viewChanged diffs the new placement against the one it replaces and starts
// a metadata pull for every shard this node NEWLY drives. It runs on the
// agent's view-change callback, before the ownership engine pauses/resumes,
// so pulls overlap the recovery barrier and are usually done by the time
// ownership requests flow again.
//
// The baseline is the placement the view service held before this change
// (Agent.PlacementBefore), not the one this service last diffed: a node
// outside the view is delivered no view changes, so a joiner's own record
// would be the placement it was constructed with — for a process that built
// its node before first contact, one with every driver set empty, against
// which no shard has a source to pull from.
func (s *Service) viewChanged() {
	p := *s.agent.Placement()
	prev := s.agent.PlacementBefore()
	live := s.agent.View().Live
	// Shards are grouped by their source set so each source scans its store
	// ONCE per view change, however many shards this node newly drives.
	groups := make(map[wire.Bitmap][]uint32)

	s.mu.Lock()
	for sh, ds := range p.Shards {
		if !ds.Contains(s.self) {
			// Not (or no longer) a driver: nothing to sync. Stale entries
			// this node may keep are harmless — it will never arbitrate
			// from them.
			delete(s.syncing, sh)
			continue
		}
		var old wire.Bitmap
		if sh < len(prev.Shards) {
			old = prev.Shards[sh]
		}
		if old.Contains(s.self) {
			continue // already a driver: entries are current
		}
		// Pull from the shard's surviving previous drivers.
		sources := old.Intersect(live).Remove(s.self)
		if sources == 0 {
			// Every previous driver is gone — a simultaneous loss of a
			// whole driver set, outside the tolerated fault envelope (like
			// losing all replicas of a data object). Serve with what we
			// have rather than block: CreateObject registrations and bulk
			// seeding rebuild entries for new objects, but pre-existing
			// objects of this shard stay unknown to the directory until
			// re-seeded (README documents the availability gap).
			delete(s.syncing, sh)
			continue
		}
		s.syncing[sh] = p.Epoch
		groups[sources] = append(groups[sources], uint32(sh))
	}
	s.syncN.Store(int32(len(s.syncing)))
	s.diffed.Store(uint32(p.Epoch))
	s.mu.Unlock()

	for sources, shards := range groups {
		s.stPulls.Add(uint64(len(shards)))
		msg := &wire.DirPull{Shards: shards, PlacementEpoch: p.Epoch, From: s.self}
		_ = s.tr.Multicast(sources.Nodes(), msg)
		for _, sh := range shards {
			sh, ep := int(sh), p.Epoch
			time.AfterFunc(syncTimeout, func() { s.forceReady(sh, ep) })
		}
	}
	if len(groups) > 0 {
		transport.Flush(s.tr)
	}
}

// forceReady is the liveness backstop: a shard whose snapshot never arrived
// (sources crashed, messages lost beyond the transport's patience) starts
// serving anyway; unknown entries heal through arbitration traffic.
func (s *Service) forceReady(shard int, epoch wire.Epoch) {
	s.mu.Lock()
	if ep, ok := s.syncing[shard]; ok && ep == epoch {
		delete(s.syncing, shard)
		s.syncN.Store(int32(len(s.syncing)))
		s.stForced.Add(1)
	}
	s.mu.Unlock()
}

// Handle dispatches one inbound directory-sync message.
func (s *Service) Handle(from wire.NodeID, m wire.Msg) {
	switch v := m.(type) {
	case *wire.DirPull:
		s.handlePull(v)
	case *wire.DirState:
		s.handleState(v)
	}
}

// handlePull snapshots the requested shards' directory metadata in ONE store
// scan and ships one DirState per shard to the pulling driver, echoing the
// pull's placement epoch. Any node answers (the snapshot is only metadata);
// pullers target previous drivers, which hold complete entries.
func (s *Service) handlePull(m *wire.DirPull) {
	if len(m.Shards) == 0 {
		return
	}
	p := s.agent.Placement()
	wanted := make(map[int][]wire.DirEntry, len(m.Shards))
	for _, sh := range m.Shards {
		wanted[int(sh)] = nil
	}
	s.st.ForEach(func(o *store.Object) bool {
		sh := p.ShardOf(o.ID)
		entries, ok := wanted[sh]
		if !ok {
			return true
		}
		o.Mu.Lock()
		reps := o.ReplicasLocked()
		_, arbitrating := o.PendingLocked()
		if reps.Owner != wire.NoNode || reps.Readers != 0 || arbitrating {
			wanted[sh] = append(entries, wire.DirEntry{
				Obj: o.ID, TS: o.OTSLocked(), Replicas: reps, Pending: arbitrating,
			})
		}
		o.Mu.Unlock()
		return true
	})
	for sh, entries := range wanted {
		_ = s.tr.Send(m.From, &wire.DirState{
			Shard: uint32(sh), PlacementEpoch: m.PlacementEpoch, From: s.self, Entries: entries,
		})
	}
	transport.Flush(s.tr)
}

// handleState installs a shard snapshot, entry by entry (see
// store.Object.AdoptEntryLocked for what an entry may overwrite).
func (s *Service) handleState(m *wire.DirState) {
	live := s.agent.View().Live
	var flagged []wire.ObjectID
	for _, e := range m.Entries {
		o, _ := s.st.GetOrCreate(e.Obj)
		o.Mu.Lock()
		adopted := o.AdoptEntryLocked(e.TS, e.Replicas.Prune(live))
		o.Mu.Unlock()
		if adopted {
			s.stEntries.Add(1)
		}
		if e.Pending {
			s.mu.Lock()
			if cur, ok := s.suspect[e.Obj]; !ok || cur.Less(e.TS) {
				s.suspect[e.Obj] = e.TS
				s.suspectN.Store(int32(len(s.suspect)))
				flagged = append(flagged, e.Obj)
			}
			s.mu.Unlock()
		}
	}
	if len(flagged) > 0 {
		// Backstop: suspicion must not outlive the arbitration it guards.
		// Replays force-complete within the ownership engine's staleAfter
		// (250 ms); after four sync windows, drive with what we have and
		// count the override.
		// The timer only lifts the suspicion it armed: an object re-flagged
		// at a higher o_ts by a later snapshot (a NEW in-flight
		// arbitration) keeps its own full window.
		objs := flagged
		armed := make([]wire.OTS, len(objs))
		s.mu.Lock()
		for i, obj := range objs {
			armed[i] = s.suspect[obj]
		}
		s.mu.Unlock()
		time.AfterFunc(4*syncTimeout, func() {
			s.mu.Lock()
			for i, obj := range objs {
				if cur, ok := s.suspect[obj]; ok && !armed[i].Less(cur) {
					delete(s.suspect, obj)
					s.stForced.Add(1)
				}
			}
			s.suspectN.Store(int32(len(s.suspect)))
			s.mu.Unlock()
		})
	}
	// Mark the shard ready only when the snapshot answers THIS placement's
	// pull: a delayed DirState from a superseded placement may miss entries
	// minted since and must not short-circuit the newer sync (its entries,
	// installed above, are still useful — the install guard keeps them
	// safe). Same epoch-match rule as forceReady.
	s.mu.Lock()
	if ep, ok := s.syncing[int(m.Shard)]; ok && ep == m.PlacementEpoch {
		delete(s.syncing, int(m.Shard))
		s.syncN.Store(int32(len(s.syncing)))
		s.stSynced.Add(1)
	}
	s.mu.Unlock()
}
