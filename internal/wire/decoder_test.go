package wire

import (
	"bytes"
	"reflect"
	"testing"
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
		CTS:       1000 + seq,
	}
	for i := 0; i < n; i++ {
		m.Updates = append(m.Updates, Update{
			Obj: ObjectID(seq*10 + uint64(i)), Version: seq,
			Data: bytes.Repeat([]byte{byte(seq), byte(i)}, 8),
		})
	}
	return m
}

// TestDecoderMatchesUnmarshal: the two entries share the kind switch, so for
// every kind they decode the same value.
func TestDecoderMatchesUnmarshal(t *testing.T) {
	var dc Decoder
	for _, m := range allMessages() {
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
}

// TestDecoderRecordsAreDistinct: records carved from the same chunk, and from
// successive chunks, are each their own — a message decoded earlier keeps its
// value and its Update list whatever is decoded after it. Lists of up to
// inlineUpdates live in the record, longer ones on the heap.
func TestDecoderRecordsAreDistinct(t *testing.T) {
	var dc Decoder
	const msgs = 40 // two and a half chunks
	var got []*CommitInv
	for seq := uint64(1); seq <= msgs; seq++ {
		n := 1 + int(seq)%(inlineUpdates+1) // 1 … 5 updates
		rec := dc.invs.head()
		m, err := dc.Unmarshal(Marshal(testInv(seq, n)))
		if err != nil {
			t.Fatal(err)
		}
		inv := m.(*CommitInv)
		if inv != &rec.CommitInv {
			t.Fatalf("R-INV %d was not decoded into the chunk's next record", seq)
		}
		if inPlace := &inv.Updates[0] == &rec.inline[0]; inPlace != (n <= inlineUpdates) {
			t.Errorf("R-INV %d with %d updates: list in the record = %v", seq, n, inPlace)
		}
		got = append(got, inv)
	}
	seen := map[*CommitInv]bool{}
	for i, inv := range got {
		seq := uint64(i + 1)
		if seen[inv] {
			t.Fatalf("record of R-INV %d was handed out twice", seq)
		}
		seen[inv] = true
		if want := testInv(seq, len(inv.Updates)); !reflect.DeepEqual(inv, want) {
			t.Errorf("R-INV %d changed after later decodes:\n got %#v\nwant %#v", seq, inv, want)
		}
		if one, err := Unmarshal(Marshal(inv)); err != nil || !reflect.DeepEqual(one, Msg(inv)) {
			t.Errorf("R-INV %d: Unmarshal decodes %#v (%v), the Decoder %#v", seq, one, err, inv)
		}
	}
}

// TestDecoderFailedDecodeUsesNoRecord: a frame that fails to decode between
// two good ones takes no record from the chunk and leaves nothing behind in
// the one it was decoded into.
func TestDecoderFailedDecodeUsesNoRecord(t *testing.T) {
	good := Marshal(testInv(1, 2))
	// Cut inside the trailing CTS: the Update list has been decoded into the
	// record, slab and all, by the time the decode fails.
	truncated := good[:len(good)-3]
	// The first update claims a payload beyond maxBlob: its length prefix
	// follows the 34-byte header, the object id and the version.
	oversized := append([]byte(nil), good...)
	copy(oversized[34+16:], []byte{0xFF, 0xFF, 0xFF, 0xFF})

	var dc Decoder
	first, err := dc.Unmarshal(good)
	if err != nil {
		t.Fatal(err)
	}
	left := len(dc.invs.free)
	for name, bad := range map[string][]byte{"truncated": truncated, "oversized": oversized} {
		if m, err := dc.Unmarshal(bad); err == nil {
			t.Fatalf("%s frame decoded to %#v", name, m)
		}
		if len(dc.invs.free) != left {
			t.Errorf("%s frame used a record: %d left, want %d", name, len(dc.invs.free), left)
		}
		if !reflect.DeepEqual(dc.invs.head(), &invRecord{}) {
			t.Errorf("%s frame left %#v in the next record", name, dc.invs.head())
		}
	}
	second, err := dc.Unmarshal(Marshal(testInv(2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, Msg(testInv(1, 2))) || !reflect.DeepEqual(second, Msg(testInv(2, 1))) {
		t.Errorf("good frames around the bad ones decoded to %#v and %#v", first, second)
	}
	if len(dc.invs.free) != left-1 {
		t.Errorf("two good R-INVs and two bad ones left %d records, want %d", len(dc.invs.free), left-1)
	}
	// Same for the fixed-size kinds.
	ack := Marshal(&CommitAck{Tx: TxID{Local: 9}, Epoch: 3, From: 1})
	if _, err := dc.Unmarshal(ack[:len(ack)-1]); err == nil {
		t.Fatal("truncated R-ACK decoded")
	}
	if n := len(dc.acks.free); n != ChunkRecords {
		t.Errorf("truncated R-ACK left %d records in a fresh chunk, want %d", n, ChunkRecords)
	}
}

// TestDecoderAllocs pins what a decoded commit message costs: a chunk's
// worth of R-ACKs (or R-VALs) is one allocation, and an R-INV whose updates
// fit the record costs its payload slab plus a sixteenth of a chunk.
func TestDecoderAllocs(t *testing.T) {
	ack := Marshal(&CommitAck{Tx: TxID{Local: 9}, Epoch: 3, From: 1, AppliedWM: 8})
	val := Marshal(&CommitVal{Tx: TxID{Local: 9}, Epoch: 3})
	inv := Marshal(testInv(7, 2))
	var dc Decoder
	perChunk := func(frame []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			for i := 0; i < ChunkRecords; i++ {
				if _, err := dc.Unmarshal(frame); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if a := perChunk(ack); a > 1 {
		t.Errorf("%d R-ACKs cost %.0f allocations, want 1", ChunkRecords, a)
	}
	if a := perChunk(val); a > 1 {
		t.Errorf("%d R-VALs cost %.0f allocations, want 1", ChunkRecords, a)
	}
	if a := perChunk(inv); a > ChunkRecords+1 {
		t.Errorf("%d two-update R-INVs cost %.0f allocations, want %d slabs and one chunk", ChunkRecords, a, ChunkRecords)
	}
}

// FuzzUnmarshal: no input panics the codec; the one-shot entry and a Decoder
// agree on error-versus-value and on the value; a decoded message survives a
// re-marshal; and whatever the input did to the Decoder, the next message
// through it decodes clean.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range allMessages() {
		b := Marshal(m)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add(Marshal(testInv(3, inlineUpdates+1)))
	for k := firstRetiredKind; k <= lastRetiredKind; k++ {
		f.Add(retiredFrame(k)) // both entries must refuse it
	}
	f.Add([]byte{})
	next := Marshal(testInv(5, 2))
	f.Fuzz(func(t *testing.T, p []byte) {
		var dc Decoder
		one, errOne := Unmarshal(p)
		got, errGot := dc.Unmarshal(p)
		if (errOne == nil) != (errGot == nil) {
			t.Fatalf("Unmarshal: %v, Decoder.Unmarshal: %v", errOne, errGot)
		}
		if after, err := dc.Unmarshal(next); err != nil || !reflect.DeepEqual(after, Msg(testInv(5, 2))) {
			t.Fatalf("the message after this input decoded to %#v (%v)", after, err)
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
