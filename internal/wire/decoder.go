package wire

// ChunkRecords is how many records a Chunk allocates at a time.
const ChunkRecords = 16

// Chunk carves records of one type out of arrays of ChunkRecords, so a record
// costs 1/ChunkRecords of an allocation. Its users are the Decoder, the
// engines' emission paths (the ownership INV, ACK and VAL; the view service's
// lease renewals and heartbeats) and the commit engine's pipelines
// (commit.Slot, which embeds its first R-INV). It is a bump allocator, not a
// recycler: a record is handed out once and never comes back, and the
// garbage collector frees an array when the last record carved from it dies —
// there is no release call to forget and no reuse to race with a message
// still in flight or stored. The price is false retention: one long-lived
// record keeps its array's other ChunkRecords-1 alive (≈ 4 KB for a stuck
// decoded R-INV, ≈ 6.5 KB for a stuck commit slot). An array over 512 bytes
// whose records hold pointers also carries Go's 8-byte malloc header, so such
// a record is sized for ChunkRecords of it plus 8 bytes to fill a size class
// (TestChunkedRecordSizes, commit.TestSlotSize). A Chunk is not safe for
// concurrent use; its owner serializes Take.
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

// Decoder decodes the messages of one inbound stream, carving the records of
// the ten kinds a loaded node receives — the reliable-commit kinds (R-INV,
// R-ACK, R-VAL), the six ownership kinds (REQ, INV, ACK, VAL, NACK, RESP) and
// the view service's lease renewals and heartbeats, which arrive every few
// hundred microseconds whatever the load — from chunks instead of allocating
// each.
//
// Ownership rule: one Decoder per inbound stream, owned by the goroutine that
// reads it — a TCP connection's read loop, the reliable fabric's per-peer
// delivery goroutine. (The in-process hub decodes nothing: it delivers the
// sender's message.) It is not safe for concurrent use. Decoded messages are
// ordinary messages: handlers keep them as long as they like (a follower
// stores an R-INV until its R-VAL) and nobody gives them back.
//
// An R-INV's payload slab is never carved from a chunk: it stays one
// allocation per message, because the follower's store adopts it as the
// replica's value — a value that shared an array with its neighbours would
// keep them all alive for as long as the object goes unwritten. The Data of
// an ownership ACK or RESP is a slab of its own for the same reason, and adds
// a retention bound the other way round: the record holds the slab, so a
// data-carrying ACK/RESP (a requester without a replica) pins its payload
// until its chunk's remaining records have been handed out and have died —
// at most ChunkRecords-1 payloads per stream.
type Decoder struct {
	invs     Chunk[invRecord]
	acks     Chunk[CommitAck]
	vals     Chunk[CommitVal]
	ownReqs  Chunk[OwnReq]
	ownInvs  Chunk[OwnInv]
	ownAcks  Chunk[OwnAck]
	ownVals  Chunk[OwnVal]
	ownNacks Chunk[OwnNack]
	ownResps Chunk[OwnResp]
	leases   Chunk[VSLeaseMsg]
	// oneShot makes every record an allocation of its own and leaves the
	// chunks unused: the package-level Unmarshal.
	oneShot bool
}

// Unmarshal parses a message produced by Marshal. It decodes exactly what
// the package-level Unmarshal does (they share the kind switch); only where
// the chunked kinds' records come from differs. A failed decode uses no
// record.
func (dc *Decoder) Unmarshal(p []byte) (Msg, error) { return unmarshal(p, dc) }

// put ends the decode of a chunked kind whose fields d has read into v: a
// good message moves into its kind's next record (an allocation of its own
// on the one-shot path); a failed decode never reaches the chunk, so it uses
// no record and leaves nothing — no stale Data pointer — in the next one.
func put[T any](dc *Decoder, c *Chunk[T], d *dec, v T) *T {
	if d.err != nil {
		return nil
	}
	var r *T
	if dc.oneShot {
		r = new(T)
	} else {
		r = c.Take()
	}
	*r = v
	return r
}

// inv returns the record the R-INV being decoded goes into and the array for
// its Update list. The one kind decoded in place (its list lives in the
// record), so settleInv closes it.
func (dc *Decoder) inv() (*CommitInv, []Update) {
	if dc.oneShot {
		return new(CommitInv), nil
	}
	r := dc.invs.head()
	return &r.CommitInv, r.inline[:]
}

func (dc *Decoder) settleInv(ok bool) {
	if !dc.oneShot {
		dc.invs.settle(ok)
	}
}
