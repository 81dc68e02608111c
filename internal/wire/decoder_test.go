package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// testInv builds an R-INV with n updates whose every field is derived from
// seq, so a record that was handed out twice or an Update array shared by two
// messages shows as a wrong value.
func testInv(seq uint64, n int) *CommitInv {
	m := &CommitInv{
		Tx:        TxID{Pipe: PipeID{Node: 2, Worker: 1, Incar: 4}, Local: seq},
		Epoch:     3,
		Followers: BitmapOf(0, 1),
		PrevVal:   seq%2 == 0,
	}
	for i := 0; i < n; i++ {
		m.Updates = append(m.Updates, Update{
			Obj: ObjectID(seq*10 + uint64(i)), Version: seq,
			Data: bytes.Repeat([]byte{byte(seq), byte(i)}, 8),
		})
	}
	return m
}

// chunkedKind is one row of the decoder table: a kind whose records a Decoder
// carves from a chunk.
type chunkedKind struct {
	name string
	// msg builds a message of the kind whose every field is derived from
	// seq, so a record handed out twice shows as a wrong value.
	msg func(seq uint64) Msg
	// head is the record the kind's next decode goes into; left is how many
	// records its chunk still holds; zeroed reports whether head is unused.
	head   func(*Decoder) Msg
	left   func(*Decoder) int
	zeroed func(*Decoder) bool
	// slabs is what one decoded msg(seq) allocates beside its record.
	slabs int
}

func chunked[T any, PT interface {
	*T
	Msg
}](name string, c func(*Decoder) *Chunk[T], slabs int, msg func(seq uint64) Msg) chunkedKind {
	return chunkedKind{
		name: name, msg: msg, slabs: slabs,
		head: func(dc *Decoder) Msg { return PT(c(dc).head()) },
		left: func(dc *Decoder) int { return len(c(dc).free) },
		zeroed: func(dc *Decoder) bool {
			var zero T
			return reflect.DeepEqual(*c(dc).head(), zero)
		},
	}
}

// chunkedKinds lists the ten kinds a Decoder chunks. The data-carrying ACK
// and RESP are the hard rows: a stale Data pointer left in a record would
// surface in the next message decoded into it.
func chunkedKinds() []chunkedKind {
	ts := func(seq uint64) OTS { return OTS{Ver: seq, Node: NodeID(seq % 3)} }
	reps := func(seq uint64) ReplicaSet {
		return ReplicaSet{Owner: NodeID(seq % 3), Readers: BitmapOf(NodeID((seq + 1) % 3))}
	}
	data := func(seq uint64) []byte { return bytes.Repeat([]byte{byte(seq), 0xA5}, 8) }
	inv := chunked("R-INV", func(dc *Decoder) *Chunk[invRecord] { return &dc.invs }, 1,
		func(seq uint64) Msg { return testInv(seq, 2) })
	inv.head = func(dc *Decoder) Msg { return &dc.invs.head().CommitInv }
	return []chunkedKind{
		inv,
		chunked("R-ACK", func(dc *Decoder) *Chunk[CommitAck] { return &dc.acks }, 0, func(seq uint64) Msg {
			return &CommitAck{Tx: TxID{Local: seq}, Epoch: 3, From: NodeID(seq % 3)}
		}),
		chunked("R-VAL", func(dc *Decoder) *Chunk[CommitVal] { return &dc.vals }, 0, func(seq uint64) Msg {
			return &CommitVal{Tx: TxID{Local: seq}, Epoch: 3}
		}),
		chunked("REQ", func(dc *Decoder) *Chunk[OwnReq] { return &dc.ownReqs }, 0, func(seq uint64) Msg {
			return &OwnReq{ReqID: seq, Obj: ObjectID(seq * 10), Requester: NodeID(seq % 3),
				Mode: AcquireOwner, Epoch: 2, Target: BitmapOf(1), Shard: uint32(seq), Holds: seq + 4}
		}),
		chunked("INV", func(dc *Decoder) *Chunk[OwnInv] { return &dc.ownInvs }, 0, func(seq uint64) Msg {
			return &OwnInv{ReqID: seq, Obj: ObjectID(seq * 10), TS: ts(seq), Epoch: 2,
				Requester: NodeID(seq % 3), Driver: 1, Mode: AcquireOwner, NewReplicas: reps(seq),
				PrevOwner: 2, Arbiters: BitmapOf(0, 1, 2), Recovery: seq%2 == 0, Holds: seq + 4}
		}),
		chunked("ACK", func(dc *Decoder) *Chunk[OwnAck] { return &dc.ownAcks }, 1, func(seq uint64) Msg {
			return &OwnAck{ReqID: seq, Obj: ObjectID(seq * 10), TS: ts(seq), Epoch: 2, From: 1,
				Arbiters: BitmapOf(0, 1, 2), NewReplicas: reps(seq), Mode: AcquireOwner,
				HasData: true, TVersion: seq + 5, Data: data(seq)}
		}),
		chunked("VAL", func(dc *Decoder) *Chunk[OwnVal] { return &dc.ownVals }, 0, func(seq uint64) Msg {
			return &OwnVal{ReqID: seq, Obj: ObjectID(seq * 10), TS: ts(seq), Epoch: 2}
		}),
		chunked("NACK", func(dc *Decoder) *Chunk[OwnNack] { return &dc.ownNacks }, 0, func(seq uint64) Msg {
			return &OwnNack{ReqID: seq, Obj: ObjectID(seq * 10), Epoch: 2, From: NodeID(seq % 3),
				Reason: NackPendingCommit}
		}),
		chunked("RESP", func(dc *Decoder) *Chunk[OwnResp] { return &dc.ownResps }, 1, func(seq uint64) Msg {
			return &OwnResp{ReqID: seq, Obj: ObjectID(seq * 10), TS: ts(seq), Epoch: 2, Driver: 1,
				Arbiters: BitmapOf(0, 1), NewReplicas: reps(seq), Mode: AcquireOwner,
				HasData: true, TVersion: seq + 5, Data: data(seq)}
		}),
		chunked("LEASE", func(dc *Decoder) *Chunk[VSLeaseMsg] { return &dc.leases }, 0, func(seq uint64) Msg {
			return &VSLeaseMsg{Nodes: BitmapOf(NodeID(seq % 3)), Heartbeat: seq%2 == 0, Ballot: seq}
		}),
	}
}

// TestDecoderMatchesUnmarshal: the two entries share the kind switch, so for
// every kind they decode the same value; the one-shot entry's records are
// allocations of its own, never a Decoder's.
func TestDecoderMatchesUnmarshal(t *testing.T) {
	var dc Decoder
	msgs := allMessages()
	for _, k := range chunkedKinds() {
		msgs = append(msgs, k.msg(7))
	}
	for _, m := range msgs {
		b := Marshal(m)
		want, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: Unmarshal: %v", m, err)
		}
		got, err := dc.Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: Decoder.Unmarshal: %v", m, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: Decoder.Unmarshal = %#v, Unmarshal = %#v", m, got, want)
		}
	}
	for _, k := range chunkedKinds() {
		frame := Marshal(k.msg(7))
		want := float64(1 + k.slabs)
		if k.name == "R-INV" {
			want++ // its Update list: only a Decoder's record has room for it
		}
		if a := testing.AllocsPerRun(20, func() { _, _ = Unmarshal(frame) }); a != want {
			t.Errorf("%s: Unmarshal costs %.0f allocations, want %.0f (a record of its own)", k.name, a, want)
		}
	}
}

// TestDecoderRecordsAreDistinct: records carved from the same chunk, and from
// successive chunks, are each their own — a message decoded earlier keeps its
// value (payload included) whatever is decoded after it.
func TestDecoderRecordsAreDistinct(t *testing.T) {
	const msgs = 40 // two and a half chunks
	for _, k := range chunkedKinds() {
		var dc Decoder
		var got []Msg
		for seq := uint64(1); seq <= msgs; seq++ {
			rec := k.head(&dc)
			m, err := dc.Unmarshal(Marshal(k.msg(seq)))
			if err != nil {
				t.Fatalf("%s %d: %v", k.name, seq, err)
			}
			if m != rec {
				t.Fatalf("%s %d was not decoded into the chunk's next record", k.name, seq)
			}
			got = append(got, m)
		}
		seen := map[Msg]bool{}
		for i, m := range got {
			seq := uint64(i + 1)
			if seen[m] {
				t.Fatalf("record of %s %d was handed out twice", k.name, seq)
			}
			seen[m] = true
			if want := k.msg(seq); !reflect.DeepEqual(m, want) {
				t.Errorf("%s %d changed after later decodes:\n got %#v\nwant %#v", k.name, seq, m, want)
			}
		}
	}
}

// TestDecoderInvListInRecord: an R-INV's Update list of up to inlineUpdates
// lives in its record, a longer one on the heap.
func TestDecoderInvListInRecord(t *testing.T) {
	var dc Decoder
	for n := 1; n <= inlineUpdates+1; n++ {
		rec := dc.invs.head()
		m, err := dc.Unmarshal(Marshal(testInv(uint64(n), n)))
		if err != nil {
			t.Fatal(err)
		}
		inv := m.(*CommitInv)
		if inPlace := &inv.Updates[0] == &rec.inline[0]; inPlace != (n <= inlineUpdates) {
			t.Errorf("R-INV with %d updates: list in the record = %v", n, inPlace)
		}
		if one, err := Unmarshal(Marshal(inv)); err != nil || !reflect.DeepEqual(one, Msg(inv)) {
			t.Errorf("R-INV %d: Unmarshal decodes %#v (%v), the Decoder %#v", n, one, err, inv)
		}
	}
}

// TestDecoderFailedDecodeUsesNoRecord: a frame that fails to decode between
// two good ones — every truncation of the kind's encoding, so also one cut
// after the payload slab has been read — takes no record from the chunk and
// leaves nothing behind in the one the next message is decoded into.
func TestDecoderFailedDecodeUsesNoRecord(t *testing.T) {
	for _, k := range chunkedKinds() {
		var dc Decoder
		good := Marshal(k.msg(1))
		first, err := dc.Unmarshal(good)
		if err != nil {
			t.Fatal(err)
		}
		bad := map[string][]byte{}
		for n := 1; n < len(good); n++ {
			bad[fmt.Sprintf("cut at %d", n)] = good[:n]
		}
		if k.name == "R-INV" {
			// The first update claims a payload beyond maxBlob: its length
			// prefix follows the 34-byte header, the object id and the version.
			oversized := append([]byte(nil), good...)
			copy(oversized[34+16:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			bad["oversized"] = oversized
		}
		left := k.left(&dc)
		for name, frame := range bad {
			if m, err := dc.Unmarshal(frame); err == nil {
				t.Fatalf("%s, %s: decoded to %#v", k.name, name, m)
			}
			if got := k.left(&dc); got != left {
				t.Fatalf("%s, %s: used a record: %d left, want %d", k.name, name, got, left)
			}
			if !k.zeroed(&dc) {
				t.Fatalf("%s, %s: left %#v in the next record", k.name, name, k.head(&dc))
			}
		}
		second, err := dc.Unmarshal(Marshal(k.msg(2)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, k.msg(1)) || !reflect.DeepEqual(second, k.msg(2)) {
			t.Errorf("%s: good frames around the bad ones decoded to %#v and %#v", k.name, first, second)
		}
		if got := k.left(&dc); got != left-1 {
			t.Errorf("%s: two good frames and %d bad ones left %d records, want %d", k.name, len(bad), got, left-1)
		}
	}
}

// TestDecoderAllocs pins what a decoded message of a chunked kind costs: a
// chunk's worth is one allocation, plus the payload slabs of the kinds that
// carry one (an R-INV's updates share theirs; a data-carrying ACK or RESP).
func TestDecoderAllocs(t *testing.T) {
	for _, k := range chunkedKinds() {
		var dc Decoder
		frame := Marshal(k.msg(7))
		a := testing.AllocsPerRun(50, func() {
			for i := 0; i < ChunkRecords; i++ {
				if _, err := dc.Unmarshal(frame); err != nil {
					t.Fatal(err)
				}
			}
		})
		if want := float64(1 + ChunkRecords*k.slabs); a > want {
			t.Errorf("%d %ss cost %.0f allocations, want one chunk and %d slabs", ChunkRecords, k.name, a, ChunkRecords*k.slabs)
		}
	}
}

// TestChunkedRecordSizes: OwnAck and OwnResp hold a pointer (Data), so a
// chunk of them carries Go's 8-byte malloc header. At 112 bytes that was
// 16 × 112 + 8 = 1800, past the 1792-byte size class into the 2048-byte one;
// with Mode and HasData packed beside From they are 96, and a chunk is 1544.
func TestChunkedRecordSizes(t *testing.T) {
	const sizeClass = 1792
	for _, r := range []struct {
		name string
		size uintptr
	}{
		{"OwnAck", unsafe.Sizeof(OwnAck{})},
		{"OwnResp", unsafe.Sizeof(OwnResp{})},
	} {
		if chunk := ChunkRecords*r.size + 8; chunk > sizeClass {
			t.Errorf("%s is %d bytes: a chunk is %d, past the %d-byte size class", r.name, r.size, chunk, sizeClass)
		}
	}
}

// FuzzUnmarshal: no input panics the codec; the one-shot entry and a Decoder
// agree on error-versus-value and on the value; a decoded message survives a
// re-marshal; and whatever the input did to the Decoder, the next message of
// every chunked kind through it decodes clean.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range allMessages() {
		b := Marshal(m)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add(Marshal(testInv(3, inlineUpdates+1)))
	// The baseline's one reply in the two shapes the fixture lacks: a
	// refusal, and a lock's packed versions.
	for _, m := range []Msg{&BResp{ReqID: 9}, &BResp{ReqID: 9, OK: true, Data: make([]byte, 16)}} {
		b := Marshal(m)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	for _, k := range retiredKinds {
		f.Add(retiredFrame(k)) // both entries must refuse it
	}
	// A restart's state pull and its answer as an older peer framed them:
	// sender, entry count, and one entry with its data.
	for _, k := range []Kind{33, 34} {
		e := &enc{b: []byte{byte(k)}}
		e.node(2)
		e.u32(1)
		e.obj(42)
		e.u64(11)
		e.ots(OTS{9, 1})
		e.replicas(ReplicaSet{Owner: 1, Readers: BitmapOf(0, 2)})
		e.boolean(true)
		e.bytes([]byte("value"))
		e.u64(99)
		f.Add(e.b)
	}
	f.Add([]byte{})
	kinds := chunkedKinds()
	for _, k := range kinds {
		b := Marshal(k.msg(3))
		f.Add(b)
		f.Add(b[:len(b)-1]) // cut after the payload slab, where there is one
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var dc Decoder
		one, errOne := Unmarshal(p)
		got, errGot := dc.Unmarshal(p)
		if (errOne == nil) != (errGot == nil) {
			t.Fatalf("Unmarshal: %v, Decoder.Unmarshal: %v", errOne, errGot)
		}
		for _, k := range kinds {
			if after, err := dc.Unmarshal(Marshal(k.msg(5))); err != nil || !reflect.DeepEqual(after, k.msg(5)) {
				t.Fatalf("the %s after this input decoded to %#v (%v)", k.name, after, err)
			}
		}
		if errOne != nil {
			return
		}
		if !reflect.DeepEqual(got, one) {
			t.Fatalf("Decoder.Unmarshal = %#v, Unmarshal = %#v", got, one)
		}
		again, err := Unmarshal(Marshal(one))
		if err != nil || !reflect.DeepEqual(again, one) {
			t.Fatalf("re-marshalled %#v decodes to %#v (%v)", one, again, err)
		}
	})
}

// FuzzBatchIter: the iterator terminates on any payload, yields only
// sub-slices of it, in order and without overlap, and stays exhausted after an
// error.
func FuzzBatchIter(f *testing.F) {
	var batch []byte
	for _, m := range allMessages() {
		batch = AppendMessage(batch, m)
	}
	f.Add(batch)
	f.Add(batch[:len(batch)-5])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		it := NewBatchIter(p)
		consumed := 0
		for {
			raw, err := it.Next()
			if err != nil {
				if raw, err := it.Next(); raw != nil || err != nil {
					t.Fatalf("after an error Next returned (%v, %v)", raw, err)
				}
				return
			}
			if raw == nil {
				if consumed != len(p) {
					t.Fatalf("clean end after %d of %d bytes", consumed, len(p))
				}
				return
			}
			consumed += 4
			if consumed+len(raw) > len(p) || (len(raw) > 0 && &raw[0] != &p[consumed]) {
				t.Fatalf("element of %d bytes is not p[%d:]", len(raw), consumed)
			}
			consumed += len(raw)
		}
	})
}
