package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Codec errors.
var (
	ErrShortBuffer = errors.New("wire: short buffer")
	ErrBadKind     = errors.New("wire: unknown message kind")
	ErrTooLarge    = errors.New("wire: field exceeds size limit")
)

// maxBlob bounds variable-length fields so a corrupt length prefix cannot
// trigger a huge allocation.
const maxBlob = 64 << 20

type enc struct{ b []byte }

func (e *enc) u8(v uint8)      { e.b = append(e.b, v) }
func (e *enc) u16(v uint16)    { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32)    { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)    { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) node(n NodeID)   { e.u16(uint16(n)) }
func (e *enc) obj(o ObjectID)  { e.u64(uint64(o)) }
func (e *enc) epoch(x Epoch)   { e.u32(uint32(x)) }
func (e *enc) bitmap(b Bitmap) { e.u64(uint64(b)) }
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) ots(t OTS) {
	e.u64(t.Ver)
	e.node(t.Node)
}
func (e *enc) tx(t TxID) {
	e.node(t.Pipe.Node)
	e.u8(uint8(t.Pipe.Worker))
	e.epoch(t.Pipe.Incar)
	e.u64(t.Local)
}
func (e *enc) replicas(r ReplicaSet) {
	e.node(r.Owner)
	e.bitmap(r.Readers)
}
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}
func (e *enc) updates(us []Update) {
	e.u32(uint32(len(us)))
	for _, u := range us {
		e.obj(u.Obj)
		e.u64(u.Version)
		e.bytes(u.Data)
	}
}
func (e *enc) bvers(vs []BVer) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.obj(v.Obj)
		e.u64(v.Ver)
	}
}
func (e *enc) objs(os []ObjectID) {
	e.u32(uint32(len(os)))
	for _, o := range os {
		e.obj(o)
	}
}
func (e *enc) str(s string) {
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) addrs(as []NodeAddr) {
	e.u16(uint16(len(as)))
	for _, a := range as {
		e.node(a.Node)
		e.str(a.Addr)
	}
}
func (e *enc) joined(js []NodeEpoch) {
	e.u16(uint16(len(js)))
	for _, j := range js {
		e.node(j.Node)
		e.epoch(j.Epoch)
	}
}
func (e *enc) vscmd(c VSCommand) {
	e.u8(uint8(c.Op))
	e.node(c.Node)
	e.epoch(c.Epoch)
	e.str(c.Addr)
}
func (e *enc) vsstate(s VSState) {
	e.u64(s.Index)
	e.epoch(s.Epoch)
	e.bitmap(s.Live)
	e.bitmap(s.Barrier)
	e.epoch(s.BarrierEpoch)
	e.placement(s.Placement)
	e.addrs(s.Addrs)
	e.joined(s.Joined)
}
func (e *enc) placement(p DirPlacement) {
	e.epoch(p.Epoch)
	e.u8(p.Degree)
	e.u16(uint16(len(p.Shards)))
	for _, b := range p.Shards {
		e.bitmap(b)
	}
}
func (e *enc) direntries(es []DirEntry) {
	e.u32(uint32(len(es)))
	for _, x := range es {
		e.obj(x.Obj)
		e.ots(x.TS)
		e.replicas(x.Replicas)
		e.boolean(x.Pending)
	}
}

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrShortBuffer
	}
}
func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}
func (d *dec) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}
func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}
func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}
func (d *dec) node() NodeID   { return NodeID(d.u16()) }
func (d *dec) obj() ObjectID  { return ObjectID(d.u64()) }
func (d *dec) epoch() Epoch   { return Epoch(d.u32()) }
func (d *dec) bitmap() Bitmap { return Bitmap(d.u64()) }
func (d *dec) boolean() bool  { return d.u8() != 0 }
func (d *dec) ots() OTS       { return OTS{Ver: d.u64(), Node: d.node()} }
func (d *dec) tx() TxID {
	return TxID{Pipe: PipeID{Node: d.node(), Worker: Worker(d.u8()), Incar: d.epoch()}, Local: d.u64()}
}
func (d *dec) replicas() ReplicaSet {
	return ReplicaSet{Owner: d.node(), Readers: d.bitmap()}
}
func (d *dec) bytes() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxBlob || d.off+int(n) > len(d.b) {
		if n > maxBlob {
			d.err = ErrTooLarge
		} else {
			d.fail()
		}
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:d.off+int(n)])
	d.off += int(n)
	return out
}
func (d *dec) skip(n int) {
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return
	}
	d.off += n
}

// updates decodes an Update list with two allocations total — the Update
// array and one shared data slab carved into per-update sub-slices — instead
// of one allocation per update. R-INV decode sits on the replication hot
// path, so a pre-scan over the (already validated-length) buffer is cheaper
// than the saved allocator round trips. The slab is never reused: decoded
// updates are retained by followers (stored R-INVs) and by the store itself
// (the staged payload aliases u.Data), so ownership must pass to the caller.
// A list that fits inline (a Decoder record's array) is decoded into it and
// costs the slab alone; nothing is written before the whole list validated.
func (d *dec) updates(inline []Update) []Update {
	n := d.u32()
	if d.err != nil || n == 0 {
		return nil
	}
	if int(n) > len(d.b) { // each update is ≥21 bytes; cheap sanity bound
		d.err = ErrTooLarge
		return nil
	}
	start := d.off
	total := 0
	for i := uint32(0); i < n && d.err == nil; i++ {
		d.skip(16) // obj + version
		l := d.u32()
		if d.err == nil && l > maxBlob {
			d.err = ErrTooLarge
		}
		d.skip(int(l))
		total += int(l)
	}
	if d.err != nil {
		return nil
	}
	d.off = start
	slab := make([]byte, 0, total)
	var out []Update
	if int(n) <= len(inline) {
		out = inline[:n:n]
	} else {
		out = make([]Update, n)
	}
	for i := range out {
		out[i].Obj = d.obj()
		out[i].Version = d.u64()
		if l := int(d.u32()); l > 0 {
			slab = append(slab, d.b[d.off:d.off+l]...)
			out[i].Data = slab[len(slab)-l : len(slab) : len(slab)]
			d.off += l
		}
	}
	return out
}
func (d *dec) bvers() []BVer {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if int(n) > len(d.b) {
		d.err = ErrTooLarge
		return nil
	}
	out := make([]BVer, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		out = append(out, BVer{Obj: d.obj(), Ver: d.u64()})
	}
	return out
}
func (d *dec) str() string {
	n := d.u16()
	if d.err != nil {
		return ""
	}
	if int(n) > len(d.b)-d.off {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}
func (d *dec) addrsList() []NodeAddr {
	n := d.u16()
	if d.err != nil || n == 0 {
		return nil
	}
	if int(n)*4 > len(d.b) { // each entry is ≥4 encoded bytes
		d.err = ErrTooLarge
		return nil
	}
	out := make([]NodeAddr, 0, n)
	for i := uint16(0); i < n && d.err == nil; i++ {
		out = append(out, NodeAddr{Node: d.node(), Addr: d.str()})
	}
	return out
}
func (d *dec) joinedList() []NodeEpoch {
	n := d.u16()
	if d.err != nil || n == 0 {
		return nil
	}
	if int(n)*6 > len(d.b) { // each entry is 6 encoded bytes
		d.err = ErrTooLarge
		return nil
	}
	out := make([]NodeEpoch, 0, n)
	for i := uint16(0); i < n && d.err == nil; i++ {
		out = append(out, NodeEpoch{Node: d.node(), Epoch: d.epoch()})
	}
	return out
}
func (d *dec) vscmd() VSCommand {
	return VSCommand{Op: VSOp(d.u8()), Node: d.node(), Epoch: d.epoch(), Addr: d.str()}
}
func (d *dec) vsstate() VSState {
	return VSState{
		Index: d.u64(), Epoch: d.epoch(), Live: d.bitmap(),
		Barrier: d.bitmap(), BarrierEpoch: d.epoch(),
		Placement: d.placement(), Addrs: d.addrsList(), Joined: d.joinedList(),
	}
}
func (d *dec) placement() DirPlacement {
	p := DirPlacement{Epoch: d.epoch(), Degree: d.u8()}
	n := d.u16()
	if d.err != nil {
		return DirPlacement{}
	}
	if int(n)*8 > len(d.b) {
		d.err = ErrTooLarge
		return DirPlacement{}
	}
	if n == 0 {
		return p
	}
	p.Shards = make([]Bitmap, n)
	for i := range p.Shards {
		p.Shards[i] = d.bitmap()
	}
	return p
}
func (d *dec) shardList() []uint32 {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if int(n)*4 > len(d.b) {
		d.err = ErrTooLarge
		return nil
	}
	out := make([]uint32, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		out = append(out, d.u32())
	}
	return out
}
func (d *dec) direntries() []DirEntry {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if int(n)*29 > len(d.b) { // each entry is 29 encoded bytes
		d.err = ErrTooLarge
		return nil
	}
	out := make([]DirEntry, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		out = append(out, DirEntry{Obj: d.obj(), TS: d.ots(), Replicas: d.replicas(), Pending: d.boolean()})
	}
	return out
}
func (d *dec) objsList() []ObjectID {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if int(n) > len(d.b) {
		d.err = ErrTooLarge
		return nil
	}
	out := make([]ObjectID, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		out = append(out, d.obj())
	}
	return out
}

// CommitSize returns the exact marshalled size of the three reliable-commit
// kinds (R-INV, R-ACK, R-VAL) without encoding them; ok is false for every
// other kind. The commit engine's replicated-bytes counter and the hub's
// zero-copy fast path both account with it, so their byte figures stay
// comparable with the fabrics that really encode. TestCommitSizeExact pins it
// to len(Marshal(m)).
func CommitSize(m Msg) (n int, ok bool) {
	switch v := m.(type) {
	case *CommitInv:
		n = 34 // kind + tx + epoch + followers + prevval + replay + count
		for i := range v.Updates {
			n += 20 + len(v.Updates[i].Data) // obj + version + length prefix
		}
		return n, true
	case *CommitAck:
		return 22, true // kind + tx + epoch + from
	case *CommitVal:
		return 20, true // kind + tx + epoch
	}
	return 0, false
}

// Marshal serializes a message: one kind byte followed by the body.
func Marshal(m Msg) []byte {
	n, _ := CommitSize(m) // the hot kinds are sized exactly; append grows the rest
	return AppendMarshal(make([]byte, 0, n), m)
}

// AppendMarshal appends m's serialization to dst and returns the extended
// slice. It is the allocation-free core of Marshal: hot paths call it with a
// pooled buffer (GetBuf/PutBuf) or while building a batch payload.
func AppendMarshal(dst []byte, m Msg) []byte {
	e := &enc{b: dst}
	e.u8(uint8(m.Kind()))
	switch v := m.(type) {
	case *OwnReq:
		e.u64(v.ReqID)
		e.obj(v.Obj)
		e.node(v.Requester)
		e.u8(uint8(v.Mode))
		e.epoch(v.Epoch)
		e.bitmap(v.Target)
		e.u32(v.Shard)
		e.u64(v.Holds)
	case *OwnInv:
		e.u64(v.ReqID)
		e.obj(v.Obj)
		e.ots(v.TS)
		e.epoch(v.Epoch)
		e.node(v.Requester)
		e.node(v.Driver)
		e.u8(uint8(v.Mode))
		e.replicas(v.NewReplicas)
		e.node(v.PrevOwner)
		e.bitmap(v.Arbiters)
		e.boolean(v.Recovery)
		e.u64(v.Holds)
	case *OwnAck:
		e.u64(v.ReqID)
		e.obj(v.Obj)
		e.ots(v.TS)
		e.epoch(v.Epoch)
		e.node(v.From)
		e.bitmap(v.Arbiters)
		e.replicas(v.NewReplicas)
		e.u8(uint8(v.Mode))
		e.boolean(v.HasData)
		e.u64(v.TVersion)
		e.bytes(v.Data)
	case *OwnVal:
		e.u64(v.ReqID)
		e.obj(v.Obj)
		e.ots(v.TS)
		e.epoch(v.Epoch)
	case *OwnNack:
		e.u64(v.ReqID)
		e.obj(v.Obj)
		e.epoch(v.Epoch)
		e.node(v.From)
		e.u8(uint8(v.Reason))
	case *OwnResp:
		e.u64(v.ReqID)
		e.obj(v.Obj)
		e.ots(v.TS)
		e.epoch(v.Epoch)
		e.node(v.Driver)
		e.bitmap(v.Arbiters)
		e.replicas(v.NewReplicas)
		e.u8(uint8(v.Mode))
		e.boolean(v.HasData)
		e.u64(v.TVersion)
		e.bytes(v.Data)
	case *CommitInv:
		e.tx(v.Tx)
		e.epoch(v.Epoch)
		e.bitmap(v.Followers)
		e.boolean(v.PrevVal)
		e.boolean(v.Replay)
		e.updates(v.Updates)
	case *CommitAck:
		e.tx(v.Tx)
		e.epoch(v.Epoch)
		e.node(v.From)
	case *CommitVal:
		e.tx(v.Tx)
		e.epoch(v.Epoch)
	case *BReadReq:
		e.u64(v.ReqID)
		e.obj(v.Obj)
	case *BResp:
		e.u64(v.ReqID)
		e.boolean(v.OK)
		e.u64(v.Ver)
		e.bytes(v.Data)
	case *BLock:
		e.u64(v.ReqID)
		e.bvers(v.Items)
	case *BValidate:
		e.u64(v.ReqID)
		e.bvers(v.Items)
	case *BBackup:
		e.u64(v.ReqID)
		e.updates(v.Updates)
	case *BCommit:
		e.u64(v.ReqID)
		e.updates(v.Updates)
	case *BAbort:
		e.u64(v.ReqID)
		e.objs(v.Objs)
	case *VSPropose:
		e.vscmd(v.Cmd)
	case *VSAccept:
		e.u64(v.Ballot)
		e.u8(v.Phase)
		e.vscmd(v.Cmd)
		e.vsstate(v.State)
		e.boolean(v.HasAcc)
		e.u64(v.AccBallot)
		e.vscmd(v.AccCmd)
		e.vsstate(v.AccState)
	case *VSCommit:
		e.u64(v.Ballot)
		e.vscmd(v.Cmd)
		e.vsstate(v.State)
		e.boolean(v.BarrierDone)
		e.epoch(v.DoneEpoch)
	case *VSLeaseMsg:
		e.bitmap(v.Nodes)
		e.boolean(v.Heartbeat)
		e.u64(v.Ballot)
	case *VSQuery:
		e.boolean(v.Resp)
		e.u64(v.Ballot)
		e.vsstate(v.State)
	case *DirPull:
		e.u32(uint32(len(v.Shards)))
		for _, sh := range v.Shards {
			e.u32(sh)
		}
		e.epoch(v.PlacementEpoch)
		e.node(v.From)
	case *DirState:
		e.u32(v.Shard)
		e.epoch(v.PlacementEpoch)
		e.node(v.From)
		e.direntries(v.Entries)
	case *SafeTime:
		e.node(v.From)
		e.epoch(v.Epoch)
		e.u64(v.WM)
	case *ObsPull:
		e.node(v.From)
		e.boolean(v.Full)
	case *ObsState:
		e.node(v.From)
		e.epoch(v.Epoch)
		e.u64(v.Commits)
		e.u64(v.Incidents)
		e.bytes(v.Metrics)
	default:
		panic(fmt.Sprintf("wire: Marshal: unhandled message type %T", m))
	}
	return e.b
}

// Unmarshal parses a message produced by Marshal into records of its own: the
// one-shot entry, for a message that does not arrive on a stream a Decoder
// reads (tools, tests).
func Unmarshal(p []byte) (Msg, error) { return unmarshal(p, &Decoder{oneShot: true}) }

// unmarshal is the one kind switch: each message's field list is written
// here and nowhere else. The reliable-commit, ownership and lease kinds take
// their record from dc (see put); every other kind allocates.
func unmarshal(p []byte, dc *Decoder) (Msg, error) {
	if len(p) == 0 {
		return nil, ErrShortBuffer
	}
	d := &dec{b: p, off: 1}
	k := Kind(p[0])
	var m Msg
	switch k {
	case KindOwnReq:
		m = put(dc, &dc.ownReqs, d, OwnReq{
			ReqID: d.u64(), Obj: d.obj(), Requester: d.node(),
			Mode: ReqMode(d.u8()), Epoch: d.epoch(), Target: d.bitmap(),
			Shard: d.u32(), Holds: d.u64(),
		})
	case KindOwnInv:
		m = put(dc, &dc.ownInvs, d, OwnInv{
			ReqID: d.u64(), Obj: d.obj(), TS: d.ots(), Epoch: d.epoch(),
			Requester: d.node(), Driver: d.node(), Mode: ReqMode(d.u8()),
			NewReplicas: d.replicas(), PrevOwner: d.node(),
			Arbiters: d.bitmap(), Recovery: d.boolean(), Holds: d.u64(),
		})
	case KindOwnAck:
		m = put(dc, &dc.ownAcks, d, OwnAck{
			ReqID: d.u64(), Obj: d.obj(), TS: d.ots(), Epoch: d.epoch(),
			From: d.node(), Arbiters: d.bitmap(), NewReplicas: d.replicas(),
			Mode: ReqMode(d.u8()), HasData: d.boolean(), TVersion: d.u64(),
			Data: d.bytes(),
		})
	case KindOwnVal:
		m = put(dc, &dc.ownVals, d, OwnVal{ReqID: d.u64(), Obj: d.obj(), TS: d.ots(), Epoch: d.epoch()})
	case KindOwnNack:
		m = put(dc, &dc.ownNacks, d, OwnNack{
			ReqID: d.u64(), Obj: d.obj(), Epoch: d.epoch(), From: d.node(),
			Reason: NackReason(d.u8()),
		})
	case KindOwnResp:
		m = put(dc, &dc.ownResps, d, OwnResp{
			ReqID: d.u64(), Obj: d.obj(), TS: d.ots(), Epoch: d.epoch(),
			Driver: d.node(), Arbiters: d.bitmap(), NewReplicas: d.replicas(),
			Mode: ReqMode(d.u8()), HasData: d.boolean(), TVersion: d.u64(),
			Data: d.bytes(),
		})
	case KindCommitInv:
		v, inline := dc.inv()
		*v = CommitInv{
			Tx: d.tx(), Epoch: d.epoch(), Followers: d.bitmap(),
			PrevVal: d.boolean(), Replay: d.boolean(), Updates: d.updates(inline),
		}
		dc.settleInv(d.err == nil)
		m = v
	case KindCommitAck:
		m = put(dc, &dc.acks, d, CommitAck{Tx: d.tx(), Epoch: d.epoch(), From: d.node()})
	case KindCommitVal:
		m = put(dc, &dc.vals, d, CommitVal{Tx: d.tx(), Epoch: d.epoch()})
	case KindBReadReq:
		m = &BReadReq{ReqID: d.u64(), Obj: d.obj()}
	case KindBResp:
		m = &BResp{ReqID: d.u64(), OK: d.boolean(), Ver: d.u64(), Data: d.bytes()}
	case KindBLock:
		m = &BLock{ReqID: d.u64(), Items: d.bvers()}
	case KindBValidate:
		m = &BValidate{ReqID: d.u64(), Items: d.bvers()}
	case KindBBackup:
		m = &BBackup{ReqID: d.u64(), Updates: d.updates(nil)}
	case KindBCommit:
		m = &BCommit{ReqID: d.u64(), Updates: d.updates(nil)}
	case KindBAbort:
		m = &BAbort{ReqID: d.u64(), Objs: d.objsList()}
	case KindVSPropose:
		m = &VSPropose{Cmd: d.vscmd()}
	case KindVSAccept:
		m = &VSAccept{
			Ballot: d.u64(), Phase: d.u8(), Cmd: d.vscmd(), State: d.vsstate(),
			HasAcc: d.boolean(), AccBallot: d.u64(), AccCmd: d.vscmd(),
			AccState: d.vsstate(),
		}
	case KindVSCommit:
		m = &VSCommit{
			Ballot: d.u64(), Cmd: d.vscmd(), State: d.vsstate(),
			BarrierDone: d.boolean(), DoneEpoch: d.epoch(),
		}
	case KindVSLease:
		m = put(dc, &dc.leases, d, VSLeaseMsg{Nodes: d.bitmap(), Heartbeat: d.boolean(), Ballot: d.u64()})
	case KindVSQuery:
		m = &VSQuery{Resp: d.boolean(), Ballot: d.u64(), State: d.vsstate()}
	case KindDirPull:
		m = &DirPull{Shards: d.shardList(), PlacementEpoch: d.epoch(), From: d.node()}
	case KindDirState:
		m = &DirState{
			Shard: d.u32(), PlacementEpoch: d.epoch(), From: d.node(),
			Entries: d.direntries(),
		}
	case KindSafeTime:
		m = &SafeTime{From: d.node(), Epoch: d.epoch(), WM: d.u64()}
	case KindObsPull:
		m = &ObsPull{From: d.node(), Full: d.boolean()}
	case KindObsState:
		m = &ObsState{
			From: d.node(), Epoch: d.epoch(), Commits: d.u64(),
			Incidents: d.u64(), Metrics: d.bytes(),
		}
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, uint8(k))
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}
