package baseline

import (
	"encoding/binary"
	"fmt"
	"sort"

	"zeus/internal/dbapi"
	"zeus/internal/wire"
)

// Txn is one OCC transaction coordinated by this node.
type Txn struct {
	n        *Node
	ro       bool
	reads    map[wire.ObjectID]uint64
	readBuf  map[wire.ObjectID][]byte
	writes   map[wire.ObjectID][]byte
	finished bool
}

// Begin starts a write transaction (the worker argument exists for interface
// parity; baseline transactions block their caller anyway).
func (n *Node) Begin(worker int) dbapi.Txn { return n.newTxn(false) }

// BeginRO starts a read-only transaction: reads + validation, no locks.
func (n *Node) BeginRO(worker int) dbapi.Txn { return n.newTxn(true) }

func (n *Node) newTxn(ro bool) *Txn {
	return &Txn{
		n:       n,
		ro:      ro,
		reads:   make(map[wire.ObjectID]uint64),
		readBuf: make(map[wire.ObjectID][]byte),
		writes:  make(map[wire.ObjectID][]byte),
	}
}

// Get reads obj from its (possibly remote) primary.
func (tx *Txn) Get(obj uint64) ([]byte, error) {
	id := wire.ObjectID(obj)
	if !tx.ro {
		if w, ok := tx.writes[id]; ok {
			return append([]byte(nil), w...), nil
		}
	}
	if b, ok := tx.readBuf[id]; ok {
		return append([]byte(nil), b...), nil
	}
	n := tx.n
	p := n.Primary(id)
	if p != n.id {
		n.stRemote.Add(1) // a remote access: one blocking round trip (§6.1)
	}
	reqID := n.newReqID()
	r := n.ask(p, reqID, &wire.BReadReq{ReqID: reqID, Obj: id})
	if r == nil || !r.OK {
		return nil, dbapi.ErrConflict
	}
	tx.reads[id] = r.Ver
	tx.readBuf[id] = r.Data
	return append([]byte(nil), r.Data...), nil
}

// Set buffers a write.
func (tx *Txn) Set(obj uint64, val []byte) error {
	if tx.ro {
		return fmt.Errorf("baseline: Set on read-only transaction")
	}
	tx.writes[wire.ObjectID(obj)] = append([]byte(nil), val...)
	return nil
}

// Abort abandons the transaction (nothing is locked before Commit).
func (tx *Txn) Abort() {
	if !tx.finished {
		tx.finished = true
		tx.n.stAborts.Add(1)
	}
}

// Commit runs the FaRM-style distributed commit:
// LOCK → VALIDATE → UPDATE BACKUPS → UPDATE PRIMARIES.
func (tx *Txn) Commit() error {
	if tx.finished {
		return fmt.Errorf("baseline: transaction already finished")
	}
	tx.finished = true
	n := tx.n

	if tx.ro || len(tx.writes) == 0 {
		// Read-only: re-validate versions at the primaries.
		if err := tx.validateReads(n.newReqID()); err != nil {
			n.stAborts.Add(1)
			return err
		}
		n.stCommits.Add(1)
		return nil
	}

	reqID := n.newReqID()
	writeIDs := make([]wire.ObjectID, 0, len(tx.writes))
	for id := range tx.writes {
		writeIDs = append(writeIDs, id)
	}
	sort.Slice(writeIDs, func(i, j int) bool { return writeIDs[i] < writeIDs[j] })

	// Phase 1: LOCK the write set at the primaries, checking read versions.
	// Primaries are visited in node-id order (and objects within a request
	// in id order, from the sort above) so concurrent transactions cannot
	// livelock by locking in opposite orders.
	byPrimary := map[wire.NodeID][]wire.BVer{}
	var primaries []wire.NodeID
	for _, id := range writeIDs {
		ver := NoVersion
		if v, wasRead := tx.reads[id]; wasRead {
			ver = v
		}
		p := n.Primary(id)
		if _, seen := byPrimary[p]; !seen {
			primaries = append(primaries, p)
		}
		byPrimary[p] = append(byPrimary[p], wire.BVer{Obj: id, Ver: ver})
	}
	sort.Slice(primaries, func(i, j int) bool { return primaries[i] < primaries[j] })
	locked := make([]wire.NodeID, 0, len(byPrimary))
	abort := func() error {
		for _, p := range locked {
			objs := make([]wire.ObjectID, 0)
			for _, it := range byPrimary[p] {
				objs = append(objs, it.Obj)
			}
			// A release has no reply, so it is sent, not asked.
			m := &wire.BAbort{ReqID: reqID, Objs: objs}
			if p == n.id {
				n.serve(m)
			} else {
				_ = n.tr.Send(p, m)
			}
		}
		n.stAborts.Add(1)
		return dbapi.ErrConflict
	}
	newVer := make(map[wire.ObjectID]uint64, len(writeIDs))
	for _, p := range primaries {
		items := byPrimary[p]
		r := n.ask(p, reqID, &wire.BLock{ReqID: reqID, Items: items})
		if r != nil && r.OK {
			locked = append(locked, p)
		}
		if r == nil || !r.OK || len(r.Data) != 8*len(items) {
			return abort()
		}
		for i, it := range items {
			newVer[it.Obj] = binary.LittleEndian.Uint64(r.Data[8*i:]) + 1
		}
	}

	// Phase 2: VALIDATE the read set (objects not written).
	if err := tx.validateReads(reqID); err != nil {
		return abort()
	}

	// Phase 3: UPDATE BACKUPS.
	byBackup := map[wire.NodeID][]wire.Update{}
	byPrimaryU := map[wire.NodeID][]wire.Update{}
	for _, id := range writeIDs {
		u := wire.Update{Obj: id, Version: newVer[id], Data: tx.writes[id]}
		for _, b := range n.Backups(id) {
			byBackup[b] = append(byBackup[b], u)
		}
		byPrimaryU[n.Primary(id)] = append(byPrimaryU[n.Primary(id)], u)
	}
	for b, ups := range byBackup {
		if n.ask(b, reqID, &wire.BBackup{ReqID: reqID, Updates: ups}) == nil {
			return abort()
		}
	}

	// Phase 4: UPDATE PRIMARIES (apply + unlock).
	for p, ups := range byPrimaryU {
		if n.ask(p, reqID, &wire.BCommit{ReqID: reqID, Updates: ups}) == nil {
			// Locks are held remotely; the primary applies when the
			// retransmitted message arrives. We report success-unknown
			// as conflict (simplification; the paper's baselines
			// recover via their own logs).
			n.stAborts.Add(1)
			return dbapi.ErrConflict
		}
	}
	n.stCommits.Add(1)
	return nil
}

// validateReads re-checks read versions at the primaries on behalf of reqID
// (a write commit validates while holding its own locks under that id).
func (tx *Txn) validateReads(reqID uint64) error {
	n := tx.n
	byPrimary := map[wire.NodeID][]wire.BVer{}
	for id, ver := range tx.reads {
		if _, written := tx.writes[id]; written {
			continue
		}
		byPrimary[n.Primary(id)] = append(byPrimary[n.Primary(id)], wire.BVer{Obj: id, Ver: ver})
	}
	for p, items := range byPrimary {
		if r := n.ask(p, reqID, &wire.BValidate{ReqID: reqID, Items: items}); r == nil || !r.OK {
			return dbapi.ErrConflict
		}
	}
	return nil
}

var _ dbapi.DB = (*Node)(nil)
