package wire

// ChunkRecords is how many records a Chunk allocates at a time.
const ChunkRecords = 16

// Chunk carves records of one message type out of arrays of ChunkRecords, so
// a record costs 1/ChunkRecords of an allocation. It is a bump allocator, not
// a recycler: a record is handed out once and never comes back, and the
// garbage collector frees an array when the last record carved from it dies —
// there is no release call to forget and no reuse to race with a message
// still in flight or stored. The price is false retention: one long-lived
// record keeps its array's other ChunkRecords-1 alive (≈ 4 KB for a stuck
// R-INV). A Chunk is not safe for concurrent use; its owner serializes Take.
type Chunk[T any] struct{ free []T }

// Take returns the next record, zeroed. The caller fills it once, before the
// message is handed to a send path or a handler, and never writes it again.
func (c *Chunk[T]) Take() *T {
	r := c.head()
	c.free = c.free[1:]
	return r
}

// head is the record the next Take returns, without taking it.
func (c *Chunk[T]) head() *T {
	if len(c.free) == 0 {
		c.free = make([]T, ChunkRecords)
	}
	return &c.free[0]
}

// settle ends a decode into head: a good record leaves the chunk; a failed
// one is wiped and stays, so the failure uses no record and the next message
// starts from a zeroed one.
func (c *Chunk[T]) settle(ok bool) {
	if ok {
		c.free = c.free[1:]
		return
	}
	var zero T
	c.free[0] = zero
}

// inlineUpdates is the longest Update list an R-INV record holds in place.
// Smallbank and TATP write one or two objects per transaction; a longer list
// falls back to a heap slice.
const inlineUpdates = 4

// invRecord is a decoded R-INV with room for its Update list beside it:
// CommitInv.Updates points into inline, so list and message are one record.
type invRecord struct {
	CommitInv
	inline [inlineUpdates]Update
}

// Decoder decodes the messages of one inbound stream, carving the three
// reliable-commit kinds (R-INV, R-ACK, R-VAL — all but a few of the messages
// a loaded node receives) from chunks instead of allocating each.
//
// Ownership rule: one Decoder per inbound stream, owned by the goroutine that
// reads it (a TCP connection's read loop, the reliable fabric's per-peer
// delivery goroutine). It is not safe for concurrent use. Decoded messages
// are ordinary messages: handlers keep them as long as they like (a follower
// stores an R-INV until its R-VAL) and nobody gives them back.
//
// An R-INV's payload slab is never carved from a chunk: it stays one
// allocation per message, because the follower's store adopts it as the
// replica's value — a value that shared an array with its neighbours would
// keep them all alive for as long as the object goes unwritten.
type Decoder struct {
	invs Chunk[invRecord]
	acks Chunk[CommitAck]
	vals Chunk[CommitVal]
}

// Unmarshal parses a message produced by Marshal. It decodes exactly what
// the package-level Unmarshal does (they share the kind switch); only where
// the commit kinds' records come from differs. A failed decode uses no
// record.
func (dc *Decoder) Unmarshal(p []byte) (Msg, error) { return unmarshal(p, dc) }

// inv returns the record the R-INV being decoded goes into and the array for
// its Update list; ack and val likewise. A nil Decoder is the one-shot path.
func (dc *Decoder) inv() (*CommitInv, []Update) {
	if dc == nil {
		return new(CommitInv), nil
	}
	r := dc.invs.head()
	return &r.CommitInv, r.inline[:]
}

func (dc *Decoder) ack() *CommitAck {
	if dc == nil {
		return new(CommitAck)
	}
	return dc.acks.head()
}

func (dc *Decoder) val() *CommitVal {
	if dc == nil {
		return new(CommitVal)
	}
	return dc.vals.head()
}

// settle closes the decode of a message of kind k (see Chunk.settle).
func (dc *Decoder) settle(k Kind, ok bool) {
	if dc == nil {
		return
	}
	switch k {
	case KindCommitInv:
		dc.invs.settle(ok)
	case KindCommitAck:
		dc.acks.settle(ok)
	case KindCommitVal:
		dc.vals.settle(ok)
	}
}
