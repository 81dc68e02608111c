// Package baseline implements the conventional distributed-transaction
// design Zeus is compared against (§6.1): static sharding, remote object
// accesses by RPC, and an OCC + two-phase commit in the style of FaRM/FaSST:
//
//	execute (remote reads) → LOCK write set at primaries (version-checked)
//	→ VALIDATE read set → UPDATE BACKUPS → UPDATE PRIMARIES (apply+unlock)
//
// Every phase blocks the calling worker for a round trip — exactly the
// behaviour the paper attributes to distributed commit ("a node cannot start
// the next transaction on the same set of objects until the commit is
// finished"). There is no dynamic re-sharding: when the access pattern
// drifts, transactions simply become remote, which is the effect measured in
// Figures 8 and 9.
//
// Each server operation — read, lock, validate, install (backup and commit)
// and release (abort) — is written once, in serve, and answers with one
// reply kind, wire.BResp. A coordinator reaches it through ask, which runs
// serve in place when the object's primary (or backup) is this node and
// makes the blocking RPC otherwise; a peer's request reaches it through
// Handle. Local and remote accesses differ only in the round trip.
//
// The same machinery with a single primary node doubles as the "Redis-like
// blocking store" of Figure 13 (every access a blocking RPC, no replication).
package baseline

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/transport"
	"zeus/internal/wire"
)

// NoVersion marks a lock request that does not check the version (blind
// write without a preceding read).
const NoVersion = ^uint64(0)

// rpcTimeout bounds each blocking phase.
const rpcTimeout = time.Second

// Config sizes the baseline deployment.
type Config struct {
	// Nodes is the deployment size; primary(obj) = obj mod Nodes.
	Nodes int
	// Degree is the replication degree (primary + Degree-1 backups).
	Degree int
}

// bobj is one object replica in the baseline store.
type bobj struct {
	mu     sync.Mutex
	ver    uint64
	data   []byte
	locked uint64 // holding request id, 0 when free
}

// Node is one baseline server (and transaction coordinator).
type Node struct {
	id  wire.NodeID
	cfg Config
	tr  transport.Transport

	storeMu sync.RWMutex
	objs    map[wire.ObjectID]*bobj

	nextReq atomic.Uint64 // low 48 bits of a reqID; see newReqID
	callMu  sync.Mutex
	calls   map[uint64]chan *wire.BResp

	stCommits atomic.Uint64
	stAborts  atomic.Uint64
	stRemote  atomic.Uint64 // remote read RPCs issued
}

// Stats aggregates baseline counters.
type Stats struct {
	Commits     uint64
	Aborts      uint64
	RemoteReads uint64
}

// NewNode creates a baseline node and installs its Handle as the
// transport's handler: the node is the endpoint's only protocol.
func NewNode(id wire.NodeID, tr transport.Transport, cfg Config) *Node {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 3
	}
	n := &Node{
		id:    id,
		cfg:   cfg,
		tr:    tr,
		objs:  make(map[wire.ObjectID]*bobj),
		calls: make(map[uint64]chan *wire.BResp),
	}
	tr.SetHandler(n.Handle)
	return n
}

// Stats returns a snapshot of counters.
func (n *Node) Stats() Stats {
	return Stats{Commits: n.stCommits.Load(), Aborts: n.stAborts.Load(), RemoteReads: n.stRemote.Load()}
}

// Primary returns the static home node of obj.
func (n *Node) Primary(obj wire.ObjectID) wire.NodeID {
	return wire.NodeID(uint64(obj) % uint64(n.cfg.Nodes))
}

// Backups returns the backup nodes of obj (the Degree-1 nodes after the
// primary).
func (n *Node) Backups(obj wire.ObjectID) []wire.NodeID {
	out := make([]wire.NodeID, 0, n.cfg.Degree-1)
	p := uint64(n.Primary(obj))
	for i := 1; i < n.cfg.Degree && i < n.cfg.Nodes; i++ {
		out = append(out, wire.NodeID((p+uint64(i))%uint64(n.cfg.Nodes)))
	}
	return out
}

// newReqID mints a deployment-unique request id: the node id in the high
// bits, a local counter in the low 48. Lock ownership (bobj.locked) is
// compared against reqIDs from *every* coordinator, so a per-node counter
// alone lets two coordinators collide on the same id and silently treat each
// other's OCC locks as their own — two writers both "lock", both validate,
// and one update is lost.
func (n *Node) newReqID() uint64 {
	return uint64(n.id)<<48 | (n.nextReq.Add(1) & (1<<48 - 1))
}

// Seed installs an object replica at this node directly (initial sharding).
func (n *Node) Seed(obj wire.ObjectID, ver uint64, data []byte) {
	n.storeMu.Lock()
	n.objs[obj] = &bobj{ver: ver, data: append([]byte(nil), data...)}
	n.storeMu.Unlock()
}

func (n *Node) obj(id wire.ObjectID, create bool) *bobj {
	n.storeMu.RLock()
	o, ok := n.objs[id]
	n.storeMu.RUnlock()
	if ok || !create {
		return o
	}
	n.storeMu.Lock()
	defer n.storeMu.Unlock()
	if o, ok = n.objs[id]; ok {
		return o
	}
	o = &bobj{}
	n.objs[id] = o
	return o
}

// ask runs req at node p and returns its reply: in place when p is this
// node, otherwise as one blocking round trip. nil means the send failed or
// no reply came within rpcTimeout.
func (n *Node) ask(p wire.NodeID, reqID uint64, req wire.Msg) *wire.BResp {
	if p == n.id {
		return n.serve(req)
	}
	ch := make(chan *wire.BResp, 1)
	n.callMu.Lock()
	n.calls[reqID] = ch
	n.callMu.Unlock()
	defer func() {
		n.callMu.Lock()
		delete(n.calls, reqID)
		n.callMu.Unlock()
	}()
	if err := n.tr.Send(p, req); err != nil {
		return nil
	}
	select {
	case r := <-ch:
		return r
	case <-time.After(rpcTimeout):
		return nil
	}
}

// Handle dispatches one inbound baseline message: a reply goes to the
// coordinator waiting on its request id, a request is served and answered.
func (n *Node) Handle(from wire.NodeID, m wire.Msg) {
	if r, ok := m.(*wire.BResp); ok {
		n.callMu.Lock()
		ch := n.calls[r.ReqID]
		n.callMu.Unlock()
		if ch != nil {
			select {
			case ch <- r:
			default:
			}
		}
		return
	}
	if r := n.serve(m); r != nil {
		_ = n.tr.Send(from, r)
	}
}

// serve runs one server operation on this node's replicas and returns its
// reply; a release (BAbort) has none.
func (n *Node) serve(req wire.Msg) *wire.BResp {
	switch m := req.(type) {
	case *wire.BReadReq:
		r := &wire.BResp{ReqID: m.ReqID}
		if o := n.obj(m.Obj, false); o != nil {
			o.mu.Lock()
			if o.locked == 0 {
				r.OK, r.Ver, r.Data = true, o.ver, append([]byte(nil), o.data...)
			}
			o.mu.Unlock()
		}
		return r
	case *wire.BLock:
		// All items or none. The reply's Data holds each item's version
		// under the lock, 8 bytes apiece, from which the coordinator numbers
		// the new versions — of a blind write too, wherever its primary is.
		r := &wire.BResp{ReqID: m.ReqID, OK: true}
		for i, it := range m.Items {
			o := n.obj(it.Obj, true)
			o.mu.Lock()
			ok := (o.locked == 0 || o.locked == m.ReqID) && (it.Ver == NoVersion || o.ver == it.Ver)
			if ok {
				o.locked = m.ReqID
				r.Data = binary.LittleEndian.AppendUint64(r.Data, o.ver)
			}
			o.mu.Unlock()
			if !ok {
				for _, t := range m.Items[:i] {
					n.unlock(m.ReqID, t.Obj)
				}
				return &wire.BResp{ReqID: m.ReqID}
			}
		}
		return r
	case *wire.BValidate:
		for _, it := range m.Items {
			o := n.obj(it.Obj, false)
			if o == nil {
				return &wire.BResp{ReqID: m.ReqID}
			}
			o.mu.Lock()
			ok := o.ver == it.Ver && (o.locked == 0 || o.locked == m.ReqID)
			o.mu.Unlock()
			if !ok {
				return &wire.BResp{ReqID: m.ReqID}
			}
		}
		return &wire.BResp{ReqID: m.ReqID, OK: true}
	case *wire.BBackup:
		n.install(0, m.Updates) // a backup's replicas are never locked
		return &wire.BResp{ReqID: m.ReqID, OK: true}
	case *wire.BCommit:
		n.install(m.ReqID, m.Updates)
		return &wire.BResp{ReqID: m.ReqID, OK: true}
	case *wire.BAbort:
		for _, id := range m.Objs {
			n.unlock(m.ReqID, id)
		}
	}
	return nil
}

// install applies each update that is newer than the replica and releases
// the lock reqID holds on it.
func (n *Node) install(reqID uint64, ups []wire.Update) {
	for _, u := range ups {
		o := n.obj(u.Obj, true)
		o.mu.Lock()
		if u.Version > o.ver {
			o.ver, o.data = u.Version, u.Data
		}
		if o.locked == reqID {
			o.locked = 0
		}
		o.mu.Unlock()
	}
}

// unlock releases obj's lock if reqID holds it.
func (n *Node) unlock(reqID uint64, obj wire.ObjectID) {
	if o := n.obj(obj, false); o != nil {
		o.mu.Lock()
		if o.locked == reqID {
			o.locked = 0
		}
		o.mu.Unlock()
	}
}
