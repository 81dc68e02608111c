// Rejoin as state sync, not cold start. A node restarting from its WAL +
// snapshot knows, for every object it replicated, the last version it
// persisted — but it cannot know what it missed while down. So recovery
// installs everything DEMOTED (NonReplica, TInvalid) and StateSync turns the
// local knowledge into a delta protocol:
//
//	restarting node  --- SYNC-PULL {obj, version}* --->  live nodes
//	current owner    --- SYNC-STATE/owner {obj, version, replicas, ts, data?}
//	owner mid-commit --- SYNC-STATE/claim {obj}
//	other replicas   --- SYNC-STATE/hint  {obj, version, ts, data?}
//
// Only the current owner of an object answers authoritatively (owners are
// the single authority for both the value and the replica set); it sends the
// payload only when the puller's version is stale, so a node that was
// briefly down re-arms mostly with metadata-sized messages. Objects whose
// recovered state named this node as owner and that no live owner claims
// within the quiet period are RECLAIMED from local durable state: the grant
// WAL says ownership was never transferred away, and a transfer performed
// while this node was down would have produced a new owner that answers the
// pull.
//
// Reclaim is FENCED by the two non-authoritative answer classes, because
// "no owner answered" does not imply "my durable state is current":
//
//   - A CLAIM says some live node holds owner level but is mid-commit or
//     mid-transfer (it will answer once its pipeline settles). Reclaiming
//     over a claim would mint a second owner, so claimed objects are never
//     reclaimed — the puller just keeps retrying.
//   - A HINT is a non-owner replica reporting a version NEWER than the
//     puller's. The canonical case: this node crashed as coordinator after
//     the local commit of V+1 but before validation, so the followers hold
//     V+1 (validated via dead-coordinator replay) while the recovered WAL
//     stops at V — and no current owner exists to answer. A validated hint
//     ships the value and the reclaim installs it; a staged (unvalidated)
//     hint, or one whose grant timestamp names a different owner, blocks
//     the reclaim until it resolves.
package core

import (
	"fmt"
	"time"

	"zeus/internal/storage"
	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// syncOrigin is what recovery remembered about a pending object — whether
// the durable state named this node as owner (reclaim eligibility) and
// whether the recovered value had completed a commit (reclaim validity) —
// plus the reclaim fences learned from non-authoritative SYNC-STATE answers
// while the pull is open (see the package comment).
type syncOrigin struct {
	selfOwner bool
	valid     bool

	// claimed: a live node announced owner level (SyncClaim). The object
	// must never be reclaimed; the claimant answers once it settles.
	claimed bool

	// Best hint seen so far (highest version; at equal versions a validated
	// value or a newer grant timestamp upgrades it). hintValid means the
	// hint shipped a committed value in hintData. hintCTS is the commit
	// timestamp of the hinted version (for the snapshot-read ring).
	hintSeen     bool
	hintVer      uint64
	hintTS       wire.OTS
	hintReplicas wire.ReplicaSet
	hintData     []byte
	hintValid    bool
	hintCTS      uint64
}

// installRecovered replays a storage.Recovered census into a fresh store,
// before any transport handler exists. Every object comes back conservative:
//
//   - Level NonReplica and TState TInvalid — the node serves nothing until
//     StateSync (or reclaim) proves the local value current;
//   - data, version, ownership timestamp and replica set retained as hints,
//     except that a recovered "self is owner" is rewritten to NoNode —
//     ownership may have migrated while the node was down.
//
// It returns the number of objects installed and records each object's
// sync origin in pending.
func installRecovered(self wire.NodeID, st *store.Store, rec *storage.Recovered, pending map[wire.ObjectID]syncOrigin) int {
	for id, r := range rec.Objects {
		o, _ := st.GetOrCreate(id)
		o.Mu.Lock()
		selfOwner := o.RecoverLocked(self, r.CTS, r.Version, r.Data, r.TS, r.Replicas)
		o.Mu.Unlock()
		pending[id] = syncOrigin{selfOwner: selfOwner, valid: r.Valid}
	}
	return len(rec.Objects)
}

// Recovered returns how many objects storage recovery installed (0 without
// storage).
func (n *Node) Recovered() int { return n.recovered }

// Incarnation returns the durable per-process incarnation number the storage
// driver reported at recovery (0 without storage; 1 for the first
// lifetime over a data dir). Values above 1 mean this process is a restart
// over existing durable state.
func (n *Node) Incarnation() uint64 { return n.incarnation }

// SyncPending returns how many recovered objects still await an
// authoritative owner answer (tests poll it; 0 once StateSync finished).
func (n *Node) SyncPending() int {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	return len(n.syncPending)
}

// syncChunk bounds the entries per SYNC message so a large store syncs as a
// stream of bounded frames rather than one giant allocation.
const syncChunk = 256

// StateSync drives the pull protocol until every recovered object was either
// answered by a current owner or reclaimed from local durable state. It must
// run after the node joined the view (peers need the view to route replies)
// and BEFORE the application serves traffic. It is a no-op for nodes that
// recovered nothing.
func (n *Node) StateSync(timeout time.Duration) error {
	if n.SyncPending() == 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	// Objects whose durable state names this node as owner are reclaimed
	// after a short quiet period — several resend rounds with no owner
	// claiming them — rather than at the full deadline: a live owner
	// answers a pull in far less than one round, so waiting longer only
	// delays the rejoin.
	quiet := 500 * time.Millisecond
	if timeout/2 < quiet {
		quiet = timeout / 2
	}
	reclaimAt := time.Now().Add(quiet)
	reclaimed := false
	resend := time.NewTicker(100 * time.Millisecond)
	defer resend.Stop()
	n.sendPulls()
	for {
		if n.SyncPending() == 0 {
			return nil
		}
		if !reclaimed && time.Now().After(reclaimAt) {
			n.reclaimLeftovers()
			reclaimed = true
			continue
		}
		if time.Now().After(deadline) {
			break
		}
		select {
		case <-n.closedCh:
			return fmt.Errorf("core: node closed during state sync")
		case <-resend.C:
			n.sendPulls()
		case <-time.After(10 * time.Millisecond):
		}
	}
	if left := n.reclaimLeftovers(); left > 0 {
		return fmt.Errorf("core: state sync timed out with %d unresolved objects", left)
	}
	return nil
}

// Rejoin brings this node — a new incarnation of one that crashed or was
// restarted, or a first-time joiner — into a running deployment through cli:
// leave if the view still lists it, join (addr, if any, goes into the
// replicated address book), wait for the view change, state-sync. Every step
// gets the same timeout. The order is the protocol:
//
// Leave before join (restart eviction). A process can be back before the
// failure detector noticed, so its previous incarnation still sits in the live
// set and the survivors still hold its unfinished replication state.
// Committing a Leave first bumps the epoch and opens the recovery barrier —
// the survivors replay that incarnation's stranded R-INVs and validate what
// the crash left mid-flight — before the join commits. Skipping it for a node
// that is "already live" would leave those slots stored at the followers for
// ever and, on a memory-only node, let the new pipes alias the old PipeIDs
// under an epoch that never moved.
//
// Join before sync. An ownership transfer ships no payload to a requester
// already in the replica set, which is sound only if every commit invalidates
// that requester — and a commit waits on live replicas only. A node that
// state-synced while still outside the view could re-arm a copy as valid and
// then miss the very next commit: stale but valid, and listed. Once it is
// live every commit reaches it, and a sync answer that lost the race against
// a newer invalidation is dropped by its version guard.
func (n *Node) Rejoin(cli *viewsvc.Client, addr string, timeout time.Duration) error {
	s := cli.State()
	if s.Live.Contains(n.id) {
		if !cli.Leave(n.id) {
			return fmt.Errorf("core: pre-join leave of node %d did not commit (no ensemble quorum?)", n.id)
		}
		if !cli.WaitEpoch(s.Epoch+1, timeout) {
			return fmt.Errorf("core: pre-join leave view change for node %d timed out", n.id)
		}
		s = cli.State()
	}
	if !cli.JoinAddr(n.id, addr) {
		return fmt.Errorf("core: join of node %d did not commit (no ensemble quorum?)", n.id)
	}
	if !cli.WaitEpoch(s.Epoch+1, timeout) {
		return fmt.Errorf("core: join view change for node %d timed out", n.id)
	}
	// Not a cold start: recovered objects re-arm at the owners' current
	// versions, exclusively-owned ones are reclaimed.
	return n.StateSync(timeout)
}

// sendPulls multicasts the still-pending ⟨obj, version⟩ entries to every
// live peer, in bounded chunks. Versions are re-read from the store so a
// pull raced by an install advertises the freshest local knowledge.
func (n *Node) sendPulls() {
	n.syncMu.Lock()
	ids := make([]wire.ObjectID, 0, len(n.syncPending))
	for id := range n.syncPending {
		ids = append(ids, id)
	}
	n.syncMu.Unlock()
	if len(ids) == 0 {
		return
	}
	live := n.agent.View().Live
	entries := make([]wire.SyncEntry, 0, syncChunk)
	flush := func() {
		if len(entries) == 0 {
			return
		}
		transport.Broadcast(n.tr, live, &wire.SyncPull{From: n.id, Entries: entries})
		entries = make([]wire.SyncEntry, 0, syncChunk)
	}
	for _, id := range ids {
		var ver uint64
		if o, ok := n.st.Get(id); ok {
			o.Mu.Lock()
			ver = o.TVersion()
			o.Mu.Unlock()
		}
		entries = append(entries, wire.SyncEntry{Obj: id, Version: ver})
		if len(entries) == syncChunk {
			flush()
		}
	}
	flush()
	transport.Flush(n.tr)
}

// reclaimLeftovers resolves pending objects that no live owner claimed. An
// object whose durable grant history names this node as owner is restored to
// owner level — see the package comment for why "no answer" implies "no new
// owner" — unless a fence blocks it: a live claimant exists (claimed), a
// hint's grant timestamp names a different owner (this node's grant history
// is stale), or a replica reported a newer version that has not validated
// yet (its commit outcome is unknown). Fenced objects stay pending and keep
// being re-pulled. A validated newer hint is installed before re-arming, so
// the reclaimed owner serves the cluster's latest committed value rather
// than its own older one. Values that had not completed a commit at crash
// time stay TInvalid (the next write re-validates them); committed values
// come back readable. Returns how many objects could NOT be reclaimed.
func (n *Node) reclaimLeftovers() int {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	for id, org := range n.syncPending {
		if !org.selfOwner || org.claimed {
			continue
		}
		o, ok := n.st.Get(id)
		if !ok {
			delete(n.syncPending, id)
			continue
		}
		o.Mu.Lock()
		var hint store.Shipped
		if org.hintSeen && org.hintVer > o.TVersion() {
			if owner := org.hintReplicas.Owner; owner != n.id && owner != wire.NoNode {
				// A replica's grant history names someone else: ownership
				// moved while this node was down. Whoever holds it answers
				// (or restarts and reclaims) — never this node.
				o.Mu.Unlock()
				continue
			}
			if !org.hintValid {
				// Newer version staged somewhere but not validated; its
				// commit outcome is unknown. Wait for the replay/validation
				// to settle — the next pull round gets a validated hint.
				o.Mu.Unlock()
				continue
			}
			hint = store.Shipped{Has: true, CTS: org.hintCTS, Version: org.hintVer, Data: org.hintData}
		}
		o.ReclaimLocked(n.id, org.hintTS, org.hintReplicas, hint, org.valid)
		o.Mu.Unlock()
		delete(n.syncPending, id)
	}
	return len(n.syncPending)
}

// handleSync dispatches both sync kinds; it is registered on the router for
// KindSyncPull and KindSyncState.
func (n *Node) handleSync(from wire.NodeID, m wire.Msg) {
	switch v := m.(type) {
	case *wire.SyncPull:
		n.handleSyncPull(v)
	case *wire.SyncState:
		n.handleSyncState(v)
	}
}

// handleSyncPull answers the entries this node knows something about. As
// current owner with a validated value it answers authoritatively
// (SyncOwner, retiring the pull). As an owner mid-commit or mid-transfer it
// sends a claim — no state yet, but the puller learns a live owner exists
// and must not reclaim; it retries and picks the object up once the
// pipeline settles. As a non-owner replica holding a version NEWER than the
// puller's it sends a hint (with the value iff validated) so the puller can
// fence — and feed — a reclaim even when no current owner exists. Entries
// this node knows nothing useful about are skipped silently.
func (n *Node) handleSyncPull(p *wire.SyncPull) {
	var out []wire.SyncEntry
	for _, e := range p.Entries {
		o, ok := n.st.Get(e.Obj)
		if !ok {
			continue
		}
		o.Mu.Lock()
		ver, st := o.TSnapshot()
		ans := wire.SyncEntry{
			Obj:      e.Obj,
			Version:  ver,
			TS:       o.OTSLocked(),
			Replicas: o.ReplicasLocked(),
			CTS:      o.CommitCTSLocked(),
		}
		lvl := o.LevelLocked()
		switch {
		case lvl == wire.Owner && o.OStateLocked() == store.OValid && st == store.TValid:
			ans.Class = wire.SyncOwner
			if ver != e.Version {
				// Stale puller: ship the payload. It is replace-only, so
				// aliasing it beyond the lock is safe (store.Object.DataLocked).
				ans.HasData = true
				ans.Data = o.DataLocked()
			}
		case lvl == wire.Owner:
			ans.Class = wire.SyncClaim
		case lvl != wire.NonReplica && ver > e.Version:
			ans.Class = wire.SyncHint
			if st == store.TValid {
				ans.HasData = true
				ans.Data = o.DataLocked()
			}
		default:
			o.Mu.Unlock()
			continue
		}
		o.Mu.Unlock()
		out = append(out, ans)
		if len(out) == syncChunk {
			_ = n.tr.Send(p.From, &wire.SyncState{From: n.id, Entries: out})
			out = nil
		}
	}
	if len(out) > 0 {
		_ = n.tr.Send(p.From, &wire.SyncState{From: n.id, Entries: out})
	}
	transport.Flush(n.tr)
}

// handleSyncState applies an owner's authoritative answers on the puller as
// grants: the replica set and ownership timestamp verbatim, this node's level
// as the replica set implies it, and as the value either the shipped payload
// (stale puller) or the local bytes the owner confirmed (versions matched).
// Each object accepts exactly ONE authoritative answer — the first to arrive
// retires the pending entry, and later duplicates (resend overlap) or
// stragglers are dropped.
// Installing a second answer would be a regression hazard: by the time it
// arrives the object may have rejoined the live protocol and advanced past
// the answered version.
//
// Claim and hint answers do not retire the entry; they accumulate on its
// syncOrigin as reclaim fences (and, for validated hints, as the value a
// reclaim installs) — see reclaimLeftovers.
func (n *Node) handleSyncState(s *wire.SyncState) {
	for _, e := range s.Entries {
		switch e.Class {
		case wire.SyncClaim:
			n.syncMu.Lock()
			if org, ok := n.syncPending[e.Obj]; ok {
				org.claimed = true
				n.syncPending[e.Obj] = org
			}
			n.syncMu.Unlock()
			continue
		case wire.SyncHint:
			n.syncMu.Lock()
			if org, ok := n.syncPending[e.Obj]; ok {
				better := !org.hintSeen || e.Version > org.hintVer
				if !better && e.Version == org.hintVer {
					// At equal versions a validated value wins; beyond that
					// only a newer grant timestamp upgrades, and a dataless
					// hint never displaces a validated one.
					if e.HasData {
						better = !org.hintValid || org.hintTS.Less(e.TS)
					} else {
						better = !org.hintValid && org.hintTS.Less(e.TS)
					}
				}
				if better {
					org.hintSeen = true
					org.hintVer = e.Version
					org.hintTS = e.TS
					org.hintReplicas = e.Replicas
					org.hintValid = e.HasData
					org.hintData = nil
					org.hintCTS = e.CTS
					if e.HasData {
						org.hintData = append([]byte(nil), e.Data...)
					}
					n.syncPending[e.Obj] = org
				}
			}
			n.syncMu.Unlock()
			continue
		}
		n.syncMu.Lock()
		_, pending := n.syncPending[e.Obj]
		if pending {
			delete(n.syncPending, e.Obj)
		}
		n.syncMu.Unlock()
		if !pending {
			continue
		}
		o, _ := n.st.GetOrCreate(e.Obj)
		o.Mu.Lock()
		if e.Version < o.TVersion() || e.TS.Less(o.OTSLocked()) {
			// The object already advanced past the answer — a racing
			// invalidation bumped the version, or a racing ownership grant
			// minted a newer o_ts (this node may drive the object's
			// directory shard, so regressing its replica set would mint
			// grants that silently drop replicas). The live protocol owns
			// the object now; the answer is stale wholesale.
			o.Mu.Unlock()
			continue
		}
		val := store.Shipped{Has: true, CTS: e.CTS, Version: e.Version, Data: o.DataLocked()}
		if e.HasData {
			val.Data = append([]byte(nil), e.Data...)
		} else if o.TVersion() != e.Version {
			val = store.Shipped{} // nothing shipped, and not the local version confirmed
		}
		o.GrantLocked(n.id, e.TS, e.Replicas, val)
		o.Mu.Unlock()
		n.clk.Update(e.CTS)
	}
}

// ---------------------------------------------------------------------------
// Background snapshots.
// ---------------------------------------------------------------------------

// snapshotEvery is the WAL record count between background snapshots.
const snapshotEvery = 1 << 14

// snapshotLoop watches the WAL growth counter and rolls a snapshot whenever
// enough records accumulated since the last one. Runs only with Storage set.
func (n *Node) snapshotLoop() {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-n.closedCh:
			return
		case <-t.C:
			if n.log.AppendedSinceMark() >= snapshotEvery {
				_ = n.SnapshotNow()
			}
		}
	}
}

// SnapshotNow scans the store into a durable snapshot and retires the WAL
// segments the snapshot covers (the driver's contract). Safe to call
// concurrently with traffic: each object is read under its own lock, and the
// driver rolls the WAL segment before the scan so records racing the scan
// stay replayable.
func (n *Node) SnapshotNow() error {
	if n.log == nil {
		return nil
	}
	return n.log.Snapshot(func(emit func(storage.SnapObject) error) error {
		var err error
		n.st.ForEach(func(o *store.Object) bool {
			o.Mu.Lock()
			so := storage.SnapObject{
				Obj:      o.ID,
				Version:  o.TVersion(),
				Data:     o.DataLocked(),
				Valid:    o.TState() == store.TValid,
				TS:       o.OTSLocked(),
				Replicas: o.ReplicasLocked(),
				Level:    o.LevelLocked(),
				CTS:      o.CommitCTSLocked(),
			}
			o.Mu.Unlock()
			err = emit(so)
			return err == nil
		})
		return err
	})
}
