package wire

import (
	"encoding/binary"
	"sync"
)

// Batch encoding: a batch payload is a sequence of length-prefixed messages,
//
//	[len:u32][Marshal(msg)] [len:u32][Marshal(msg)] ...
//
// with no count header — readers iterate until the payload is exhausted. The
// transport layer wraps one batch payload in a single reliable frame, so a
// whole batch is acknowledged, retransmitted and delivered as a unit,
// preserving per-peer FIFO order across loss (§3.1).

// AppendMessage appends one length-prefixed message to a batch payload.
func AppendMessage(dst []byte, m Msg) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = AppendMarshal(dst, m)
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	return dst
}

// BatchIter walks the raw message encodings of a batch payload.
type BatchIter struct {
	p   []byte
	off int
}

// NewBatchIter returns an iterator over the batch payload p.
func NewBatchIter(p []byte) BatchIter { return BatchIter{p: p} }

// Next returns the next raw message encoding, or (nil, nil) at the end. A
// truncated length prefix or element yields ErrShortBuffer; the iterator is
// then exhausted.
func (it *BatchIter) Next() ([]byte, error) {
	if it.off >= len(it.p) {
		return nil, nil
	}
	if it.off+4 > len(it.p) {
		it.off = len(it.p)
		return nil, ErrShortBuffer
	}
	n := binary.LittleEndian.Uint32(it.p[it.off:])
	it.off += 4
	if n > MaxMsg || it.off+int(n) > len(it.p) {
		it.off = len(it.p)
		if n > MaxMsg {
			return nil, ErrTooLarge
		}
		return nil, ErrShortBuffer
	}
	raw := it.p[it.off : it.off+int(n)]
	it.off += int(n)
	return raw, nil
}

// Buf is a pooled encode buffer. Use B[:0] as the append target and store the
// result back into B before releasing, so the pool retains grown capacity.
type Buf struct{ B []byte }

var bufPool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, 512)} }}

// GetBuf returns a pooled encode buffer with len(B) == 0.
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// PutBuf recycles a buffer obtained from GetBuf. Oversized buffers are
// dropped so one huge message cannot pin memory in the pool.
func PutBuf(b *Buf) {
	if b == nil || cap(b.B) > 1<<16 {
		return
	}
	bufPool.Put(b)
}
