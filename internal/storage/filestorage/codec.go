package filestorage

import (
	"encoding/binary"
	"fmt"

	"zeus/internal/storage"
	"zeus/internal/wire"
)

// Frame payloads use a fixed little-endian layout (no varints: WAL bytes
// are cheap, decode branches are not):
//
//	record:  kind u8 | level u8 | flags u8 | obj u64 | version u64 |
//	         tsVer u64 | tsNode u16 | owner u16 | readers u64 |
//	         dataLen u32 | data
//	snapobj: valid u8 | level u8 | flags u8 | same tail as record
//
// flags bit0 = data present (distinguishes nil from empty data). A payload
// ends exactly where its data ends: anything else is refused, so a frame of
// another layout (an earlier one carried a cts u64 before dataLen) fails
// recovery instead of decoding as something it is not.

const fixedPayload = 1 + 1 + 1 + 8 + 8 + 8 + 2 + 2 + 8 + 4

func appendCommon(dst []byte, obj wire.ObjectID, version uint64, ts wire.OTS, reps wire.ReplicaSet, data []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(obj))
	dst = binary.LittleEndian.AppendUint64(dst, version)
	dst = binary.LittleEndian.AppendUint64(dst, ts.Ver)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(ts.Node))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(reps.Owner))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(reps.Readers))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(data)))
	return append(dst, data...)
}

func encodeRecord(dst []byte, r storage.Record) []byte {
	var flags byte
	if r.Data != nil {
		flags |= 1
	}
	dst = append(dst, byte(r.Kind), byte(r.Level), flags)
	return appendCommon(dst, r.Obj, r.Version, r.TS, r.Replicas, r.Data)
}

func encodeSnapObject(dst []byte, o storage.SnapObject) []byte {
	var valid, flags byte
	if o.Valid {
		valid = 1
	}
	if o.Data != nil {
		flags |= 1
	}
	dst = append(dst, valid, byte(o.Level), flags)
	return appendCommon(dst, o.Obj, o.Version, o.TS, o.Replicas, o.Data)
}

type payloadReader struct {
	b   []byte
	off int
}

func (p *payloadReader) u8() byte {
	v := p.b[p.off]
	p.off++
	return v
}
func (p *payloadReader) u16() uint16 {
	v := binary.LittleEndian.Uint16(p.b[p.off:])
	p.off += 2
	return v
}
func (p *payloadReader) u32() uint32 {
	v := binary.LittleEndian.Uint32(p.b[p.off:])
	p.off += 4
	return v
}
func (p *payloadReader) u64() uint64 {
	v := binary.LittleEndian.Uint64(p.b[p.off:])
	p.off += 8
	return v
}

func decodeCommon(p *payloadReader, hasData bool) (obj wire.ObjectID, version uint64, ts wire.OTS, reps wire.ReplicaSet, data []byte, err error) {
	obj = wire.ObjectID(p.u64())
	version = p.u64()
	ts = wire.OTS{Ver: p.u64(), Node: wire.NodeID(p.u16())}
	reps = wire.ReplicaSet{Owner: wire.NodeID(p.u16()), Readers: wire.Bitmap(p.u64())}
	n := int(p.u32())
	if n != len(p.b)-p.off {
		return obj, version, ts, reps, nil, fmt.Errorf("data length %d, payload holds %d", n, len(p.b)-p.off)
	}
	if hasData {
		data = make([]byte, n)
		copy(data, p.b[p.off:])
	}
	return obj, version, ts, reps, data, nil
}

func decodeRecord(payload []byte) (storage.Record, error) {
	if len(payload) < fixedPayload {
		return storage.Record{}, fmt.Errorf("record payload too short: %d", len(payload))
	}
	p := &payloadReader{b: payload}
	var r storage.Record
	r.Kind = storage.RecKind(p.u8())
	r.Level = wire.AccessLevel(p.u8())
	flags := p.u8()
	var err error
	r.Obj, r.Version, r.TS, r.Replicas, r.Data, err = decodeCommon(p, flags&1 != 0)
	return r, err
}

func decodeSnapObject(payload []byte) (storage.SnapObject, error) {
	if len(payload) < fixedPayload {
		return storage.SnapObject{}, fmt.Errorf("snapshot payload too short: %d", len(payload))
	}
	p := &payloadReader{b: payload}
	var o storage.SnapObject
	o.Valid = p.u8() != 0
	o.Level = wire.AccessLevel(p.u8())
	flags := p.u8()
	var err error
	o.Obj, o.Version, o.TS, o.Replicas, o.Data, err = decodeCommon(p, flags&1 != 0)
	return o, err
}
