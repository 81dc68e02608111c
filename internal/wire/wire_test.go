package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	var b Bitmap
	if b.Count() != 0 {
		t.Fatalf("empty bitmap count = %d, want 0", b.Count())
	}
	b = b.Add(0).Add(3).Add(63)
	if !b.Contains(0) || !b.Contains(3) || !b.Contains(63) {
		t.Fatalf("bitmap missing inserted members: %v", b)
	}
	if b.Contains(1) || b.Contains(62) {
		t.Fatalf("bitmap contains members never added: %v", b)
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d, want 3", b.Count())
	}
	b = b.Remove(3)
	if b.Contains(3) || b.Count() != 2 {
		t.Fatalf("remove failed: %v", b)
	}
	got := b.Nodes()
	want := []NodeID{0, 63}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Nodes() = %v, want %v", got, want)
	}
}

func TestBitmapOutOfRangeContains(t *testing.T) {
	b := BitmapOf(0, 1, 2)
	if b.Contains(MaxNodes) || b.Contains(NoNode) {
		t.Fatal("Contains must be false for out-of-range node ids")
	}
}

func TestBitmapSetAlgebra(t *testing.T) {
	a := BitmapOf(1, 2, 3)
	b := BitmapOf(3, 4)
	if got := a.Union(b); got != BitmapOf(1, 2, 3, 4) {
		t.Fatalf("union = %v", got)
	}
	if got := a.Intersect(b); got != BitmapOf(3) {
		t.Fatalf("intersect = %v", got)
	}
}

func TestOTSOrdering(t *testing.T) {
	cases := []struct {
		a, b OTS
		less bool
	}{
		{OTS{1, 0}, OTS{2, 0}, true},
		{OTS{2, 0}, OTS{1, 5}, false},
		{OTS{1, 1}, OTS{1, 2}, true},
		{OTS{1, 2}, OTS{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestOTSTotalOrderProperty(t *testing.T) {
	f := func(av, bv uint64, an, bn uint16) bool {
		a := OTS{Ver: av, Node: NodeID(an % MaxNodes)}
		b := OTS{Ver: bv, Node: NodeID(bn % MaxNodes)}
		// Exactly one of a<b, b<a, a==b holds.
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a.Equal(b) {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaSetTransitions(t *testing.T) {
	r := ReplicaSet{Owner: NoNode}
	r = r.WithOwner(1)
	if r.Owner != 1 || r.Readers.Count() != 0 {
		t.Fatalf("after first owner: %v", r)
	}
	r = r.WithReader(2).WithReader(3)
	if r.LevelOf(2) != Reader || r.LevelOf(3) != Reader || r.LevelOf(1) != Owner {
		t.Fatalf("levels wrong: %v", r)
	}
	if r.LevelOf(9) != NonReplica {
		t.Fatalf("node 9 should be non-replica")
	}
	// Ownership transfer: old owner demotes to reader.
	r2 := r.WithOwner(2)
	if r2.Owner != 2 || !r2.Readers.Contains(1) || r2.Readers.Contains(2) {
		t.Fatalf("transfer wrong: %v", r2)
	}
	// Promoting the owner to reader is a no-op.
	r3 := r2.WithReader(2)
	if r3 != r2 {
		t.Fatalf("owner promoted to reader changed set: %v vs %v", r3, r2)
	}
	// All() includes everyone exactly once.
	if r2.All() != BitmapOf(1, 2, 3) {
		t.Fatalf("All() = %v", r2.All())
	}
}

func TestReplicaSetPrune(t *testing.T) {
	r := ReplicaSet{Owner: 2, Readers: BitmapOf(0, 1)}
	p := r.Prune(BitmapOf(0, 1))
	if p.Owner != NoNode || p.Readers != BitmapOf(0, 1) {
		t.Fatalf("prune dead owner: %v", p)
	}
	p2 := r.Prune(BitmapOf(1, 2))
	if p2.Owner != 2 || p2.Readers != BitmapOf(1) {
		t.Fatalf("prune dead reader: %v", p2)
	}
}

func TestReplicaSetWithOwnerSameOwner(t *testing.T) {
	r := ReplicaSet{Owner: 1, Readers: BitmapOf(2)}
	if got := r.WithOwner(1); got != r {
		t.Fatalf("re-owning by same node changed set: %v", got)
	}
}

// allMessages returns one populated instance of every message type.
func allMessages() []Msg {
	data := []byte("the quick brown fox")
	return []Msg{
		&OwnReq{ReqID: 7, Obj: 42, Requester: 3, Mode: AcquireOwner, Epoch: 2, Target: BitmapOf(1, 2), Shard: 13, Holds: 10},
		&OwnInv{ReqID: 7, Obj: 42, TS: OTS{9, 1}, Epoch: 2, Requester: 3, Driver: 0,
			Mode: AcquireReader, NewReplicas: ReplicaSet{Owner: 3, Readers: BitmapOf(1)},
			PrevOwner: 1, Arbiters: BitmapOf(0, 1, 2), Recovery: true, Holds: 10},
		&OwnAck{ReqID: 7, Obj: 42, TS: OTS{9, 1}, Epoch: 2, From: 1,
			Arbiters: BitmapOf(0, 1, 2), NewReplicas: ReplicaSet{Owner: 3, Readers: BitmapOf(1)},
			Mode: AcquireOwner, HasData: true, TVersion: 11, Data: data},
		&OwnVal{ReqID: 7, Obj: 42, TS: OTS{9, 1}, Epoch: 2},
		&OwnNack{ReqID: 7, Obj: 42, Epoch: 2, From: 1, Reason: NackPendingCommit},
		&OwnResp{ReqID: 7, Obj: 42, TS: OTS{9, 1}, Epoch: 2, Driver: 0,
			Arbiters: BitmapOf(0, 1), NewReplicas: ReplicaSet{Owner: 3}, Mode: AcquireOwner,
			HasData: true, TVersion: 4, Data: data},
		&CommitInv{Tx: TxID{Pipe: PipeID{Node: 2, Worker: 5}, Local: 99}, Epoch: 3,
			Followers: BitmapOf(0, 1), PrevVal: true, Replay: true,
			Updates: []Update{{Obj: 1, Version: 2, Data: data}, {Obj: 9, Version: 1, Data: nil}}},
		&CommitAck{Tx: TxID{Pipe: PipeID{Node: 2, Worker: 5}, Local: 99}, Epoch: 3, From: 1},
		&CommitVal{Tx: TxID{Pipe: PipeID{Node: 2, Worker: 5}, Local: 99}, Epoch: 3},
		&BReadReq{ReqID: 5, Obj: 10},
		&BResp{ReqID: 5, OK: true, Ver: 3, Data: data},
		&BLock{ReqID: 5, Items: []BVer{{Obj: 1, Ver: 2}, {Obj: 3, Ver: 4}}},
		&BValidate{ReqID: 5, Items: []BVer{{Obj: 8, Ver: 0}}},
		&BBackup{ReqID: 5, Updates: []Update{{Obj: 1, Version: 3, Data: data}}},
		&BCommit{ReqID: 5, Updates: []Update{{Obj: 1, Version: 3, Data: data}}},
		&BAbort{ReqID: 5, Objs: []ObjectID{1, 2, 3}},
		&VSPropose{Cmd: VSCommand{Op: VSJoin, Node: 3, Epoch: 0, Addr: "127.0.0.1:7003"}},
		&VSPropose{Cmd: VSCommand{Op: VSFail, Node: 3, Epoch: 4}},
		&VSAccept{Ballot: 4, Phase: VSPhasePromise,
			Cmd:    VSCommand{Op: VSLeave, Node: 2},
			State:  VSState{Index: 9, Epoch: 5, Live: BitmapOf(0, 1), Barrier: BitmapOf(0), BarrierEpoch: 5},
			HasAcc: true, AccBallot: 3, AccCmd: VSCommand{Op: VSJoin, Node: 6},
			AccState: VSState{Index: 10, Epoch: 6, Live: BitmapOf(0, 1, 6)}},
		&VSCommit{Ballot: 4, Cmd: VSCommand{Op: VSRecoveryDone, Node: 1, Epoch: 5},
			State: VSState{Index: 11, Epoch: 5, Live: BitmapOf(0, 1),
				Placement: DirPlacement{Epoch: 5, Degree: 2, Shards: []Bitmap{BitmapOf(0, 1), BitmapOf(0, 1)}},
				Addrs:     []NodeAddr{{Node: 0, Addr: "10.0.0.1:7000"}, {Node: 1, Addr: "10.0.0.2:7000"}},
				Joined:    []NodeEpoch{{Node: 1, Epoch: 4}}},
			BarrierDone: true, DoneEpoch: 5},
		&VSLeaseMsg{Nodes: BitmapOf(2, 5), Heartbeat: true, Ballot: 7},
		&VSQuery{Resp: true, Ballot: 7, State: VSState{Index: 3, Epoch: 2, Live: BitmapOf(0, 1, 2),
			Placement: ComputePlacement(4, 3, 2, BitmapOf(0, 1, 2))}},
		&DirPull{Shards: []uint32{9, 11, 12}, PlacementEpoch: 3, From: 4},
		&DirState{Shard: 9, PlacementEpoch: 3, From: 2, Entries: []DirEntry{
			{Obj: 42, TS: OTS{9, 1}, Replicas: ReplicaSet{Owner: 3, Readers: BitmapOf(1, 2)}, Pending: true},
			{Obj: 43, TS: OTS{2, 0}, Replicas: ReplicaSet{Owner: NoNode}},
		}},
		&SafeTime{From: 2, Epoch: 5, WM: 987654321},
		&ObsPull{From: 3, Full: true},
		&ObsState{From: 1, Epoch: 4, Commits: 5, Incidents: 1, Metrics: []byte("zeus_commits_total 5\n")},
	}
}

func TestMarshalRoundTripAllKinds(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range allMessages() {
		seen[m.Kind()] = true
		b := Marshal(m)
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", m, err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(got)) {
			t.Fatalf("%T round trip mismatch:\n got %#v\nwant %#v", m, got, m)
		}
	}
	// Ensure the fixture covers every declared kind. The retired kinds (two
	// membership messages, three of a load balancer's KV, four baseline
	// replies folded into BResp, a restart's state pull and its answer) keep
	// their numbers, so every later kind keeps its on-wire value, and decode
	// to nothing.
	if KindCommitVal != 9 || KindBReadReq != 15 || KindBResp != 16 || KindBAbort != 25 || KindObsState != 37 {
		t.Errorf("kind numbers moved: r-val %d, b-read-req %d, b-resp %d, b-abort %d, obs-state %d; want 9, 15, 16, 25, 37",
			KindCommitVal, KindBReadReq, KindBResp, KindBAbort, KindObsState)
	}
	for k := KindOwnReq; k < kindSentinel; k++ {
		if slices.Contains(retiredKinds, k) {
			if m, err := Unmarshal(retiredFrame(k)); err == nil {
				t.Errorf("retired kind %d decodes to %T", k, m)
			}
			continue
		}
		if !seen[k] {
			t.Errorf("no round-trip fixture for kind %v", k)
		}
	}
}

// The retired kind numbers, and a frame that would have decoded as one: the
// round-trip test and the fuzz seeds both hold that it decodes to nothing.
var retiredKinds = []Kind{10, 11, 12, 13, 14, 18, 20, 22, 24, 33, 34}

func retiredFrame(k Kind) []byte { return []byte{byte(k), 0, 0, 0, 0, 0, 0, 0, 0} }

// normalize maps nil and empty byte slices to a canonical form so that
// DeepEqual tolerates the codec returning nil for zero-length fields.
func normalize(m Msg) Msg {
	switch v := m.(type) {
	case *CommitInv:
		c := *v
		c.Updates = normUpdates(c.Updates)
		return &c
	case *BBackup:
		c := *v
		c.Updates = normUpdates(c.Updates)
		return &c
	case *BCommit:
		c := *v
		c.Updates = normUpdates(c.Updates)
		return &c
	}
	return m
}

func normUpdates(us []Update) []Update {
	out := make([]Update, len(us))
	for i, u := range us {
		if len(u.Data) == 0 {
			u.Data = nil
		}
		out[i] = u
	}
	return out
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil buffer should fail")
	}
	if _, err := Unmarshal([]byte{0xEE}); err == nil {
		t.Fatal("unknown kind should fail")
	}
	// Truncations of every valid message must error, never panic.
	for _, m := range allMessages() {
		b := Marshal(m)
		for i := 1; i < len(b); i++ {
			if _, err := Unmarshal(b[:i]); err == nil {
				// Some prefixes can be self-consistent (e.g. a
				// shorter variable-length field); only require
				// no panic, but a full-length truncation that
				// cuts a fixed field must fail. Skip silently.
				_ = err
			}
		}
	}
}

func TestUnmarshalHugeLengthPrefix(t *testing.T) {
	// An OwnAck whose Data length claims 4 GiB must be rejected cleanly.
	m := &OwnAck{ReqID: 1, Obj: 2, HasData: true, Data: []byte{1, 2, 3}}
	b := Marshal(m)
	// The encoding ends [len u32][data 3][cts u64]; overwrite the length.
	copy(b[len(b)-15:len(b)-11], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Unmarshal(b[:len(b)-11]); err == nil {
		t.Fatal("huge length prefix must be rejected")
	}
}

func TestMarshalFuzzRoundTripCommitInv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := rng.Intn(5)
		ups := make([]Update, n)
		for j := range ups {
			d := make([]byte, rng.Intn(64))
			rng.Read(d)
			var data []byte
			if len(d) > 0 {
				data = d
			}
			ups[j] = Update{Obj: ObjectID(rng.Uint64()), Version: rng.Uint64(), Data: data}
		}
		m := &CommitInv{
			Tx:        TxID{Pipe: PipeID{Node: NodeID(rng.Intn(MaxNodes)), Worker: Worker(rng.Intn(256))}, Local: rng.Uint64()},
			Epoch:     Epoch(rng.Uint32()),
			Followers: Bitmap(rng.Uint64()),
			PrevVal:   rng.Intn(2) == 0,
			Replay:    rng.Intn(2) == 0,
			Updates:   ups,
		}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		g := got.(*CommitInv)
		if g.Tx != m.Tx || g.Epoch != m.Epoch || g.Followers != m.Followers ||
			g.PrevVal != m.PrevVal || g.Replay != m.Replay || len(g.Updates) != len(m.Updates) {
			t.Fatalf("iter %d: header mismatch", i)
		}
		for j := range ups {
			if g.Updates[j].Obj != ups[j].Obj || g.Updates[j].Version != ups[j].Version ||
				!bytes.Equal(g.Updates[j].Data, ups[j].Data) {
				t.Fatalf("iter %d: update %d mismatch", i, j)
			}
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindInvalid; k < kindSentinel; k++ {
		if s := k.String(); s == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	for _, k := range retiredKinds {
		if want := fmt.Sprintf("reserved-%d", k); k.String() != want {
			t.Errorf("retired kind %d reads %q, want %q", k, k, want)
		}
	}
	if KindBResp.String() != "b-resp" || KindBAbort.String() != "b-abort" {
		t.Errorf("baseline kinds read %q and %q", KindBResp, KindBAbort)
	}
	for _, s := range []fmt.Stringer{AccessLevel(9), ReqMode(9), NackReason(9)} {
		if s.String() == "" {
			t.Errorf("%T fallback string empty", s)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	msgs := []Msg{
		&CommitInv{Tx: TxID{Pipe: PipeID{Node: 1, Worker: 2}, Local: 7}, Epoch: 3,
			Updates: []Update{{Obj: 42, Version: 9, Data: []byte("payload")}}},
		&CommitAck{Tx: TxID{Local: 7}, Epoch: 3, From: 4},
		&CommitVal{Tx: TxID{Local: 7}, Epoch: 3},
	}
	var b []byte
	for _, m := range msgs {
		b = AppendMessage(b, m)
	}
	it := NewBatchIter(b)
	var got []Msg
	for {
		raw, err := it.Next()
		if err != nil {
			t.Fatalf("batch iter: %v", err)
		}
		if raw == nil {
			break
		}
		m, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("unmarshal batch element: %v", err)
		}
		got = append(got, m)
	}
	if len(got) != len(msgs) {
		t.Fatalf("round-tripped %d messages, want %d", len(got), len(msgs))
	}
	if inv, ok := got[0].(*CommitInv); !ok || string(inv.Updates[0].Data) != "payload" {
		t.Fatalf("first element corrupted: %#v", got[0])
	}
	if ack, ok := got[1].(*CommitAck); !ok || ack.From != 4 {
		t.Fatalf("second element corrupted: %#v", got[1])
	}
}

func TestBatchIterTruncated(t *testing.T) {
	b := AppendMessage(nil, &CommitVal{Tx: TxID{Local: 1}})
	// Truncated element body.
	it := NewBatchIter(b[:len(b)-2])
	if _, err := it.Next(); err == nil {
		t.Fatal("truncated element must error")
	}
	// Truncated length prefix.
	it = NewBatchIter(b[:2])
	if _, err := it.Next(); err == nil {
		t.Fatal("truncated length prefix must error")
	}
	// After an error the iterator is exhausted, not looping.
	if raw, err := it.Next(); raw != nil || err != nil {
		t.Fatalf("exhausted iterator returned (%v, %v)", raw, err)
	}
}

func TestAppendMarshalMatchesMarshal(t *testing.T) {
	m := &CommitInv{Tx: TxID{Pipe: PipeID{Node: 1}, Local: 5},
		Updates: []Update{{Obj: 1, Version: 2, Data: []byte("x")}}}
	prefix := []byte("prefix")
	out := AppendMarshal(append([]byte(nil), prefix...), m)
	if string(out[:len(prefix)]) != "prefix" {
		t.Fatal("AppendMarshal clobbered the prefix")
	}
	if string(out[len(prefix):]) != string(Marshal(m)) {
		t.Fatal("AppendMarshal and Marshal disagree")
	}
}

func TestBufPoolRecycles(t *testing.T) {
	b := GetBuf()
	if len(b.B) != 0 {
		t.Fatalf("fresh buf has len %d", len(b.B))
	}
	b.B = AppendMarshal(b.B, &CommitVal{Tx: TxID{Local: 9}})
	PutBuf(b)
	b2 := GetBuf()
	if len(b2.B) != 0 {
		t.Fatal("pooled buf not reset")
	}
	PutBuf(b2)
	// Oversized buffers are dropped, not pooled.
	big := &Buf{B: make([]byte, 1<<17)}
	PutBuf(big) // must not panic or pin
}

// TestEncodedSizes pins the bytes each allMessages fixture encodes to, so a
// field that grows a message is an edit here, kind by kind. OwnReq and OwnInv
// carry the requester's Holds (8 bytes); the reliable-commit kinds are the
// replication path's bytes (wire.commitinv_* in the benchmark).
func TestEncodedSizes(t *testing.T) {
	want := []struct {
		kind Kind
		size int
	}{
		{KindOwnReq, 44}, {KindOwnInv, 65}, {KindOwnAck, 84}, {KindOwnVal, 31},
		{KindOwnNack, 24}, {KindOwnResp, 84}, {KindCommitInv, 93}, {KindCommitAck, 22},
		{KindCommitVal, 20}, {KindBReadReq, 17}, {KindBResp, 41}, {KindBLock, 45},
		{KindBValidate, 29}, {KindBBackup, 52}, {KindBCommit, 52}, {KindBAbort, 37},
		{KindVSPropose, 24}, {KindVSPropose, 10}, {KindVSAccept, 123}, {KindVSCommit, 122},
		{KindVSLease, 18}, {KindVSQuery, 85}, {KindDirPull, 23}, {KindDirState, 73},
		{KindSafeTime, 15}, {KindObsPull, 4}, {KindObsState, 48},
	}
	msgs := allMessages()
	if len(msgs) != len(want) {
		t.Fatalf("%d fixtures, %d sizes", len(msgs), len(want))
	}
	for i, m := range msgs {
		if m.Kind() != want[i].kind {
			t.Fatalf("fixture %d is a %v, want a %v", i, m.Kind(), want[i].kind)
		}
		if n := len(Marshal(m)); n != want[i].size {
			t.Errorf("fixture %d (%v) encodes to %d bytes, want %d", i, m.Kind(), n, want[i].size)
		}
	}
}

// TestCommitSizeExact pins CommitSize to the codec: the commit engine and the
// hub account replicated bytes with it instead of encoding, so it must equal
// len(Marshal(m)) for every reliable-commit kind and refuse everything else.
func TestCommitSizeExact(t *testing.T) {
	tx := TxID{Pipe: PipeID{Node: 1, Worker: 2, Incar: 7}, Local: 99}
	upd := func(sizes ...int) []Update {
		var us []Update
		for i, n := range sizes {
			us = append(us, Update{Obj: ObjectID(i + 1), Version: uint64(10 + i), Data: make([]byte, n)})
		}
		return us
	}
	msgs := []Msg{
		&CommitInv{Tx: tx, Epoch: 3, Followers: BitmapOf(0, 2), PrevVal: true},
		&CommitInv{Tx: tx, Epoch: 3, Followers: BitmapOf(0, 2), Updates: upd(64)},
		&CommitInv{Tx: tx, Epoch: 3, Followers: BitmapOf(0, 2), Replay: true, Updates: upd(0, 400, 7)},
		&CommitAck{Tx: tx, Epoch: 3, From: 2},
		&CommitVal{Tx: tx, Epoch: 3},
	}
	for _, m := range msgs {
		n, ok := CommitSize(m)
		if want := len(Marshal(m)); !ok || n != want {
			t.Errorf("CommitSize(%v) = %d, %v; Marshal is %d bytes", m.Kind(), n, ok, want)
		}
	}
	if _, ok := CommitSize(&SafeTime{Epoch: 1}); ok {
		t.Error("CommitSize accepted a non-commit message")
	}
}

// TestBitmapEach checks the iterator against Nodes, early exit included, and
// that ranging over it allocates nothing (it replaces Nodes in the per-commit
// fan-out loops for exactly that reason).
func TestBitmapEach(t *testing.T) {
	for _, b := range []Bitmap{0, BitmapOf(0), BitmapOf(1, 2, 63), BitmapOf(0, 5, 9, 33)} {
		var got []NodeID
		for n := range b.Each {
			got = append(got, n)
		}
		if fmt.Sprint(got) != fmt.Sprint(b.Nodes()) && !(len(got) == 0 && len(b.Nodes()) == 0) {
			t.Errorf("Each(%v) = %v", b, got)
		}
	}
	first := NoNode
	for n := range BitmapOf(4, 8).Each {
		first = n
		break
	}
	if first != 4 {
		t.Errorf("early exit saw %d, want 4", first)
	}
	set, sum := BitmapOf(1, 2, 40), 0
	if a := testing.AllocsPerRun(100, func() {
		for n := range set.Each {
			sum += int(n)
		}
	}); a != 0 {
		t.Errorf("ranging over Bitmap.Each allocates %v times", a)
	}
}
