// Rejoin as state sync, not cold start. A node restarting from its WAL +
// snapshot knows, for every object it replicated, the last version it
// persisted — but it cannot know what it missed while down. So recovery
// installs everything DEMOTED (NonReplica, TInvalid) and StateSync turns the
// local knowledge into a delta protocol:
//
//	restarting node  --- SYNC-PULL {obj, version}* --->  live nodes
//	current owner    --- SYNC-STATE {obj, version, replicas, ts, data?}
//
// Only the current owner of an object answers (owners are the single
// authority for both the value and the replica set), and only once its value
// is validated; it sends the payload only when the puller's version is stale,
// so a node that was briefly down re-arms mostly with metadata-sized messages.
//
// An object whose recovered state named this node as owner may have no owner
// to answer: the view change that removed this node's previous incarnation
// pruned it from every replica set, leaving the object ownerless until the
// directory arbitrates the next request for it (§4.1). After a quiet period
// with no answer, the node is that next request: it acquires each such object
// through the directory like any requester, one at a time, and asks again for
// any whose request failed until StateSync's deadline. A live reader is the
// data source and its ACK ships the value, which the grant installs unless the
// recovered one is newer; a live owner mid-commit NACKs and the request
// retries. The survivors' replica sets then list this node, so no later move
// can leave it behind holding a level nobody else knows of.
//
// One case has no directory to ask: every driver answers that no replica of
// the object is live (all of them died with this node, or the object was
// deleted while it was down). There, and only there, the node re-arms itself
// as owner from its own durable state (store.ReclaimLocked).
package core

import (
	"errors"
	"fmt"
	"time"

	"zeus/internal/ownership"
	"zeus/internal/storage"
	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// syncOrigin is what recovery remembered about a pending object: whether the
// durable state named this node as owner (it reclaims the object) and whether
// the recovered value had completed a commit (what a local re-arm vouches
// for).
type syncOrigin struct {
	selfOwner bool
	valid     bool
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

// SyncPending returns how many recovered objects still await an owner's
// answer or a reclaim (tests poll it; 0 once StateSync finished).
func (n *Node) SyncPending() int {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	return len(n.syncPending)
}

// syncChunk bounds the entries per SYNC message so a large store syncs as a
// stream of bounded frames rather than one giant allocation.
const syncChunk = 256

// StateSync drives the pull protocol until every recovered object was either
// answered by a current owner or reclaimed (see the package comment). It must
// run after the node joined the view (peers need the view to route replies,
// and a reclaim is an ownership request) and BEFORE the application serves
// traffic. It is a no-op for nodes that recovered nothing.
func (n *Node) StateSync(timeout time.Duration) error {
	if n.SyncPending() == 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	// Objects whose durable state names this node as owner are reclaimed
	// after a short quiet period — several resend rounds with no owner
	// answering — rather than at the full deadline: a live owner answers a
	// pull in far less than one round, so waiting longer only delays the
	// rejoin.
	reclaimAt := time.Now().Add(min(500*time.Millisecond, timeout/2))
	var reclaimed chan struct{}
	resend := time.NewTicker(100 * time.Millisecond)
	defer resend.Stop()
	n.sendPulls()
	for n.SyncPending() > 0 && time.Now().Before(deadline) {
		if reclaimed == nil && time.Now().After(reclaimAt) {
			reclaimed = make(chan struct{})
			go func() {
				defer close(reclaimed)
				n.reclaim(deadline)
			}()
		}
		select {
		case <-n.closedCh:
			if reclaimed != nil {
				<-reclaimed // a closed engine fails what is still in flight
			}
			return fmt.Errorf("core: node closed during state sync")
		case <-resend.C:
			n.sendPulls()
		case <-time.After(10 * time.Millisecond):
		}
	}
	if reclaimed != nil {
		<-reclaimed
	}
	if left := n.SyncPending(); left > 0 {
		return fmt.Errorf("core: state sync timed out with %d unresolved objects", left)
	}
	return nil
}

// Rejoin brings this node — a new incarnation of one that crashed or was
// restarted, or a first-time joiner — into a running deployment through cli:
// leave if the view still lists it, join (addr, if any, goes into the
// replicated address book), wait for the view change, state-sync. Every step
// gets the same timeout. The join makes the node a new member: the view
// records the epoch it committed at as the node's join epoch, and a failure
// report naming an earlier one is a no-op. The order is the protocol:
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
// a newer invalidation is dropped by its version guard. A reclaim, too, is an
// ownership request, which the drivers arbitrate only for a live member.
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
	// versions, and the ones this node owned are requested back.
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

// reclaim acquires through the directory, one at a time, every still-pending
// object whose recovered state named this node as owner. Each request gives up
// by deadline at the latest; an object whose request failed stays pending and
// is requested again in the next round, until none is left, the deadline
// passed or the node closed.
func (n *Node) reclaim(deadline time.Time) {
	for {
		var ids []wire.ObjectID
		n.syncMu.Lock()
		for id, org := range n.syncPending {
			if org.selfOwner {
				ids = append(ids, id)
			}
		}
		n.syncMu.Unlock()
		if len(ids) == 0 {
			return
		}
		for _, id := range ids {
			if time.Now().After(deadline) || errors.Is(n.reclaimOne(id, deadline), ownership.ErrClosed) {
				return
			}
		}
	}
}

// reclaimOne acquires id and retires its pull. When every driver answers that
// no replica is live, the node re-arms itself from its durable state — the
// one case with nobody else to ask. A failed request leaves id pending.
func (n *Node) reclaimOne(id wire.ObjectID, deadline time.Time) error {
	n.syncMu.Lock()
	_, pending := n.syncPending[id]
	n.syncMu.Unlock()
	if !pending {
		return nil // an owner answered meanwhile
	}
	err := n.own.AcquireOwnershipBy(id, deadline)
	if err != nil && !errors.Is(err, ownership.ErrUnknownObject) {
		return err
	}
	n.syncMu.Lock()
	org, pending := n.syncPending[id]
	delete(n.syncPending, id)
	n.syncMu.Unlock()
	if err == nil || !pending {
		return nil
	}
	if o, ok := n.st.Get(id); ok {
		o.Mu.Lock()
		o.ReclaimLocked(n.id, org.valid)
		o.Mu.Unlock()
	}
	return nil
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

// handleSyncPull answers the entries this node owns with a validated value;
// an owner mid-commit or mid-transfer answers a later pull, once its pipeline
// settled. Every other entry is skipped silently.
func (n *Node) handleSyncPull(p *wire.SyncPull) {
	var out []wire.SyncEntry
	for _, e := range p.Entries {
		o, ok := n.st.Get(e.Obj)
		if !ok {
			continue
		}
		o.Mu.Lock()
		ver, st := o.TSnapshot()
		if o.LevelLocked() != wire.Owner || o.OStateLocked() != store.OValid || st != store.TValid {
			o.Mu.Unlock()
			continue
		}
		ans := wire.SyncEntry{
			Obj:      e.Obj,
			Version:  ver,
			TS:       o.OTSLocked(),
			Replicas: o.ReplicasLocked(),
			CTS:      o.CommitCTSLocked(),
		}
		if ver != e.Version {
			// Stale puller: ship the payload. It is replace-only, so
			// aliasing it beyond the lock is safe (store.Object.DataLocked).
			ans.HasData = true
			ans.Data = o.DataLocked()
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

// handleSyncState applies an owner's answers on the puller as grants: the
// replica set and ownership timestamp verbatim, this node's level as the
// replica set implies it, and as the value either the shipped payload (stale
// puller) or the local bytes the owner confirmed (versions matched).
// Each object accepts exactly ONE answer — the first to arrive retires the
// pending entry, and later duplicates (resend overlap) or stragglers are
// dropped.
// Installing a second answer would be a regression hazard: by the time it
// arrives the object may have rejoined the live protocol and advanced past
// the answered version.
func (n *Node) handleSyncState(s *wire.SyncState) {
	for _, e := range s.Entries {
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
		if e.Version < o.TVersion() {
			// A racing invalidation bumped the version past the answer (one
			// older than o_ts or a pending arbitration GrantLocked refuses).
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
