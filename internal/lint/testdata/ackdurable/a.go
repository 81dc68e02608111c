// Package ackdurable exercises the ackdurable analyzer: a CommitAck may only
// leave after the WAL Append it depends on returns with its error consumed.
package ackdurable

import (
	"zeus/internal/storage"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// ackBeforeAppend inverts the choke-point order: the acknowledgement races
// ahead of the durability it promises.
func ackBeforeAppend(l *storage.Log, tr transport.Transport, to wire.NodeID, recs []storage.Record) {
	_ = tr.Send(to, &wire.CommitAck{}) // want `CommitAck sent before the WAL Append`
	if l.Append(recs...) != nil {
		return
	}
}

// ackAfterCheckedAppendIsFine is ackDurable's sanctioned shape: append,
// check, and only then ack.
func ackAfterCheckedAppendIsFine(l *storage.Log, tr transport.Transport, to wire.NodeID, recs []storage.Record) {
	if l.Append(recs...) != nil {
		return // no durability, no ack
	}
	_ = tr.Send(to, &wire.CommitAck{})
}

// discardedErrorThenAck: dropping Append's error in an acknowledging
// function acks a write that may not be durable.
func discardedErrorThenAck(l *storage.Log, tr transport.Transport, to wire.NodeID, recs []storage.Record) {
	_ = l.Append(recs...) // want `WAL Append error discarded in a function that sends CommitAck`
	_ = tr.Send(to, &wire.CommitAck{})
}

// bestEffortIsFine is the recCommitted/recGrant shape: a best-effort append
// in a function that sends no acks may drop the error.
func bestEffortIsFine(l *storage.Log, recs []storage.Record) {
	_ = l.Append(recs...)
}

// waived: the escape hatch works here like everywhere in zeuslint.
func waived(l *storage.Log, tr transport.Transport, to wire.NodeID, recs []storage.Record) {
	_ = l.Append(recs...) //lint:allow ackdurable fixture proves waivers apply
	_ = tr.Send(to, &wire.CommitAck{})
}
