// Rejoin as a reclaim, not a cold start. A node restarting from its WAL +
// snapshot knows, for every object it replicated, the last version it
// persisted — but it cannot know what it missed while down, and once it
// rejoins it is a new member that sits in no replica set. So recovery
// installs only the objects whose durable state named this node as owner,
// DEMOTED (NonReplica, TInvalid), and Reclaim takes each of them back through
// the directory like any requester: one at a time, asking again for any whose
// request failed, until Reclaim's deadline. Whatever the node merely read, it
// requests on its next access, like any object it never held.
//
// The view change that removed the previous incarnation pruned it from every
// replica set, so an object it owned is either ownerless until the directory
// arbitrates the next request for it (§4.1), or owned by a survivor that took
// it over meanwhile; either way the reclaim is one ordinary ownership move. A
// live reader or owner is the data source and its ACK ships the value, which
// the grant installs unless the recovered one is newer; a live owner
// mid-commit NACKs and the request retries. The survivors' replica sets then
// list this node, so no later move can leave it behind holding a level nobody
// else knows of.
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
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// installRecovered replays the objects of a storage.Recovered census that
// this node owned into a fresh store, before any transport handler exists.
// Every other object is skipped: its owner was someone else, and the node
// requests it on its next access like any object it never held. An owned
// object comes back conservative:
//
//   - Level NonReplica and TState TInvalid — the node serves nothing until
//     the reclaim proves the local value current;
//   - data, version, ownership timestamp and readers retained as hints, the
//     owner rewritten to NoNode — ownership may have migrated while the node
//     was down.
//
// It returns the census size and records, for each installed object, whether
// the recovered value had completed a commit (what a local re-arm vouches
// for) in pending.
func installRecovered(self wire.NodeID, st *store.Store, rec *storage.Recovered, pending map[wire.ObjectID]bool) int {
	for id, r := range rec.Objects {
		if r.Replicas.Owner != self {
			continue
		}
		o, _ := st.GetOrCreate(id)
		o.Mu.Lock()
		o.RecoverLocked(self, r.CTS, r.Version, r.Data, r.TS, r.Replicas)
		o.Mu.Unlock()
		pending[id] = r.Valid
	}
	return len(rec.Objects)
}

// Recovered returns how many objects storage recovery found (0 without
// storage), owned or not.
func (n *Node) Recovered() int { return n.recovered }

// Incarnation returns the durable per-process incarnation number the storage
// driver reported at recovery (0 without storage; 1 for the first
// lifetime over a data dir). Values above 1 mean this process is a restart
// over existing durable state.
func (n *Node) Incarnation() uint64 { return n.incarnation }

// ReclaimPending returns how many recovered objects this node owned still
// await their reclaim (0 once Reclaim succeeded).
func (n *Node) ReclaimPending() int {
	n.reclaimMu.Lock()
	defer n.reclaimMu.Unlock()
	return len(n.reclaimPending)
}

// Reclaim takes back every recovered object this node owned (see the package
// comment), giving up after timeout. It must run after the node joined the
// view — a reclaim is an ownership request, which the drivers arbitrate only
// for a live member — and BEFORE the application serves traffic. It is a
// no-op for nodes that recovered nothing they owned.
func (n *Node) Reclaim(timeout time.Duration) error {
	n.reclaim(time.Now().Add(timeout))
	if left := n.ReclaimPending(); left > 0 {
		return fmt.Errorf("core: reclaim ended with %d unresolved objects (deadline passed or node closed)", left)
	}
	return nil
}

// Rejoin brings this node — a new incarnation of one that crashed or was
// restarted, or a first-time joiner — into a running deployment through cli:
// leave if the view still lists it, join (addr, if any, goes into the
// replicated address book), wait for the view change, reclaim. Every step
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
// Join before reclaim. A reclaim is an ownership request, which the drivers
// arbitrate only for a live member.
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
	// Not a cold start: the objects this node owned are requested back.
	return n.Reclaim(timeout)
}

// reclaim acquires through the directory, one at a time, every still-pending
// object. Each request gives up by deadline at the latest; an object whose
// request failed stays pending and is requested again in the next round,
// until none is left, the deadline passed or the node closed.
func (n *Node) reclaim(deadline time.Time) {
	for {
		n.reclaimMu.Lock()
		ids := make([]wire.ObjectID, 0, len(n.reclaimPending))
		for id := range n.reclaimPending {
			ids = append(ids, id)
		}
		n.reclaimMu.Unlock()
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

// reclaimOne acquires id and retires it. When every driver answers that no
// replica is live, the node re-arms itself from its durable state — the one
// case with nobody else to ask. A failed request leaves id pending.
func (n *Node) reclaimOne(id wire.ObjectID, deadline time.Time) error {
	err := n.own.AcquireOwnershipBy(id, deadline)
	if err != nil && !errors.Is(err, ownership.ErrUnknownObject) {
		return err
	}
	n.reclaimMu.Lock()
	valid := n.reclaimPending[id]
	delete(n.reclaimPending, id)
	n.reclaimMu.Unlock()
	if err == nil {
		return nil
	}
	if o, ok := n.st.Get(id); ok {
		o.Mu.Lock()
		o.ReclaimLocked(n.id, valid)
		o.Mu.Unlock()
	}
	return nil
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
