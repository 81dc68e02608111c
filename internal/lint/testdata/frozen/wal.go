package frozen

import (
	"zeus/internal/storage"
	"zeus/internal/wire"
)

// WAL records are frozen the moment they are handed to Append: the
// group-commit log encodes them asynchronously.

// postAppendWrite is the regression shape the rule pins: the record slice
// "fixed up" after the hand-off, while the log's encoder may already be
// walking it.
func postAppendWrite(l *storage.Log, obj wire.ObjectID) {
	recs := []storage.Record{{Kind: storage.RecInv, Obj: obj}}
	if l.Append(recs...) != nil {
		return
	}
	recs[0].Version = 7 // want `WAL record recs written after it was handed to Append`
}

// postAppendElemWrite: whole-element writes are caught too.
func postAppendElemWrite(l *storage.Log, obj wire.ObjectID) {
	recs := make([]storage.Record, 1)
	recs[0] = storage.Record{Kind: storage.RecCommit, Obj: obj}
	if l.Append(recs...) != nil {
		return
	}
	recs[0] = storage.Record{} // want `WAL record recs written after it was handed to Append`
}

// closureReuseRecs stages every append in one slice the func literal
// captured: the next call rewrites the batch the log may still be encoding.
func closureReuseRecs(l *storage.Log) func(wire.ObjectID) error {
	recs := make([]storage.Record, 1)
	return func(obj wire.ObjectID) error {
		recs[0] = storage.Record{Kind: storage.RecInv, Obj: obj} // want `WAL record recs written in a func literal that hands the captured recs to Append`
		return l.Append(recs...)
	}
}

// rebindRecsIsFine: a fresh slice taking over the name is a new batch, not
// a mutation of the appended one.
func rebindRecsIsFine(l *storage.Log, obj wire.ObjectID) {
	recs := []storage.Record{{Kind: storage.RecInv, Obj: obj}}
	if l.Append(recs...) != nil {
		return
	}
	recs = []storage.Record{{Kind: storage.RecCommit, Obj: obj}}
	recs[0].Version = 1
	_ = l.Append(recs...)
}

// recordByValueIsFine: a bare Record value is copied at the call; the
// variable stays the caller's to mutate.
func recordByValueIsFine(l *storage.Log, obj wire.ObjectID) {
	r := storage.Record{Kind: storage.RecGrant, Obj: obj}
	_ = l.Append(r)
	r.Level = wire.Owner
}

// waivedRecs: the escape hatch works here like everywhere in zeuslint.
func waivedRecs(l *storage.Log, obj wire.ObjectID) {
	recs := []storage.Record{{Kind: storage.RecInv, Obj: obj}}
	if l.Append(recs...) != nil {
		return
	}
	recs[0].Version = 9 //lint:allow frozen fixture proves waivers apply
}
