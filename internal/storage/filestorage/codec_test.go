package filestorage

import (
	"encoding/binary"
	"testing"

	"zeus/internal/storage"
	"zeus/internal/wire"
)

// appendWithCTS is the earlier payload layout, which carried a cts u64
// between readers and dataLen.
func appendWithCTS(dst []byte, obj wire.ObjectID, version uint64, ts wire.OTS, reps wire.ReplicaSet, cts uint64, data []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(obj))
	dst = binary.LittleEndian.AppendUint64(dst, version)
	dst = binary.LittleEndian.AppendUint64(dst, ts.Ver)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(ts.Node))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(reps.Owner))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(reps.Readers))
	dst = binary.LittleEndian.AppendUint64(dst, cts)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(data)))
	return append(dst, data...)
}

// TestEarlierLayoutIsRefused: a record or snapshot object written with the
// cts field fails to decode instead of being misread — with cts 0 its low
// half reads as a zero data length, which without the exact-end check
// decoded as a record of empty data.
func TestEarlierLayoutIsRefused(t *testing.T) {
	ts := wire.OTS{Ver: 4, Node: 1}
	reps := wire.ReplicaSet{Owner: 1, Readers: wire.BitmapOf(0, 2)}
	for _, cts := range []uint64{0, 1, 1 << 40} {
		for _, data := range []string{"", "payload"} {
			rec := appendWithCTS([]byte{byte(storage.RecCommit), byte(wire.Owner), 1}, 7, 3, ts, reps, cts, []byte(data))
			if r, err := decodeRecord(rec); err == nil {
				t.Errorf("cts %d, data %q: the earlier record layout decoded as %+v", cts, data, r)
			}
			snap := appendWithCTS([]byte{1, byte(wire.Owner), 1}, 7, 3, ts, reps, cts, []byte(data))
			if o, err := decodeSnapObject(snap); err == nil {
				t.Errorf("cts %d, data %q: the earlier snapshot layout decoded as %+v", cts, data, o)
			}
		}
	}
	// The current layout, and a byte past its end.
	want := storage.Record{Kind: storage.RecCommit, Obj: 7, Version: 3, TS: ts, Replicas: reps, Level: wire.Owner, Data: []byte("payload")}
	b := encodeRecord(nil, want)
	if got, err := decodeRecord(b); err != nil || string(got.Data) != "payload" || got.TS != ts || got.Replicas != reps {
		t.Fatalf("current layout: %+v, %v", got, err)
	}
	if _, err := decodeRecord(append(b, 0)); err == nil {
		t.Error("a record with a trailing byte decoded")
	}
}
