package frozen

import (
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// A wire message is frozen the moment it is handed to a send-side entry
// point, because the zero-copy fabric and the reliable transport's
// retransmit queue may still reference the very struct the sender built.

// postSendWrite is the regression shape the rule pins: an R-INV "fixed up"
// after the hand-off, while FabricMem may already have delivered the
// original struct.
func postSendWrite(tr transport.Transport, to wire.NodeID, epoch wire.Epoch) {
	inv := &wire.CommitInv{Epoch: epoch}
	_ = tr.Send(to, inv)
	inv.Epoch = epoch + 1 // want `wire message inv written after it was handed to Send`
	inv.Replay = true     // want `wire message inv written after it was handed to Send`
}

// postSendDeepWrite: writes through the variable are caught at any depth.
func postSendDeepWrite(tr transport.Transport, to wire.NodeID) {
	inv := &wire.CommitInv{Updates: make([]wire.Update, 1)}
	_ = tr.Send(to, inv)
	inv.Updates[0] = wire.Update{} // want `wire message inv written after it was handed to Send`
}

// rebindIsFine: a fresh message taking over the name is not a mutation of
// the sent one, and un-freezes the variable.
func rebindIsFine(tr transport.Transport, to wire.NodeID) {
	m := &wire.CommitVal{}
	_ = tr.Send(to, m)
	m = &wire.CommitVal{}
	m.Epoch = 1
	_ = tr.Send(to, m)
}

// copyOnWriteIsFine is the commit engine's replay idiom: clone the stored
// message, mutate the private copy, and only then hand it to the transport —
// also after the original itself was sent.
func copyOnWriteIsFine(tr transport.Transport, to wire.NodeID, orig *wire.CommitInv) {
	_ = tr.Send(to, orig)
	inv := *orig
	inv.Replay = true
	_ = tr.Send(to, &inv)
}

// valueAfterAddressSend: sending &value shares the variable's storage, so
// post-send writes to the value are just as racy as through a pointer.
func valueAfterAddressSend(tr transport.Transport, to wire.NodeID, orig *wire.CommitInv) {
	inv := *orig
	_ = tr.Send(to, &inv)
	inv.Replay = true // want `wire message inv written after it was handed to Send`
}

// enqueueCounts: the reliable transport's retransmit queue holds the message
// until acked — enqueue-style hand-offs freeze too.
func enqueueCounts(q interface{ Enqueue(wire.NodeID, wire.Msg) }, to wire.NodeID) {
	ack := &wire.CommitAck{}
	q.Enqueue(to, ack)
	ack.From = 3 // want `wire message ack written after it was handed to Enqueue`
}

// multicastCounts: one struct handed to many destinations at once.
func multicastCounts(tr transport.Transport, dsts []wire.NodeID) {
	val := &wire.CommitVal{}
	_ = tr.Multicast(dsts, val)
	val.Epoch = 2 // want `wire message val written after it was handed to Multicast`
}

// loopReuseMsg builds one message outside the loop and rewrites it for every
// destination: the next iteration rewrites the struct the last one sent.
func loopReuseMsg(tr transport.Transport, dsts []wire.NodeID, epoch wire.Epoch) {
	val := &wire.CommitVal{}
	for _, to := range dsts {
		val.Epoch = epoch // want `wire message val written in a loop that hands it to Send`
		_ = tr.Send(to, val)
	}
}

// aliasWrite writes the sent message through a second name for it.
func aliasWrite(tr transport.Transport, to wire.NodeID) {
	m := &wire.CommitInv{}
	m2 := m
	_ = tr.Send(to, m)
	m2.Replay = true // want `wire message m2 written after it was handed to Send`
}

// freshPerIterationIsFine: a message built inside the loop, or rebound at
// the top of every iteration, is a new struct for every send.
func freshPerIterationIsFine(tr transport.Transport, dsts []wire.NodeID, epoch wire.Epoch) {
	for _, to := range dsts {
		val := &wire.CommitVal{}
		val.Epoch = epoch
		_ = tr.Send(to, val)
	}
	var inv *wire.CommitInv
	for _, to := range dsts {
		inv = &wire.CommitInv{}
		inv.Epoch = epoch
		_ = tr.Send(to, inv)
	}
}

// waivedSend proves //lint:allow suppresses a finding (reason is mandatory).
func waivedSend(tr transport.Transport, to wire.NodeID) {
	m := &wire.CommitVal{}
	_ = tr.Send(to, m)
	m.Epoch = 9 //lint:allow frozen fixture demonstrates the waiver syntax
}
