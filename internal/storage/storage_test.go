package storage_test

import (
	"sync"
	"testing"

	"zeus/internal/storage"
	"zeus/internal/storage/memstorage"
	"zeus/internal/wire"
)

func TestReplayRules(t *testing.T) {
	r := storage.NewRecovered()
	// Staged write: invalid until its commit record shows up.
	r.ApplyRecord(storage.Record{Kind: storage.RecInv, Obj: 1, Version: 5, Data: []byte("v5")})
	if o := r.Objects[1]; o.Valid || o.Version != 5 {
		t.Fatalf("after inv: %+v", o)
	}
	r.ApplyRecord(storage.Record{Kind: storage.RecCommit, Obj: 1, Version: 5})
	if o := r.Objects[1]; !o.Valid || string(o.Data) != "v5" {
		t.Fatalf("after commit: %+v", o)
	}
	// Stale inv replayed after a newer version must not regress.
	r.ApplyRecord(storage.Record{Kind: storage.RecInv, Obj: 1, Version: 4, Data: []byte("v4")})
	if o := r.Objects[1]; !o.Valid || o.Version != 5 {
		t.Fatalf("stale inv regressed: %+v", o)
	}
	// Coordinator-style commit carries data directly.
	r.ApplyRecord(storage.Record{Kind: storage.RecCommit, Obj: 2, Version: 9, Data: []byte("v9")})
	if o := r.Objects[2]; !o.Valid || string(o.Data) != "v9" {
		t.Fatalf("coordinator commit: %+v", o)
	}
	// Grants apply by ownership-timestamp order, not arrival order.
	newer := storage.Record{Kind: storage.RecGrant, Obj: 2, TS: wire.OTS{Ver: 7, Node: 1},
		Replicas: wire.ReplicaSet{Owner: 1}, Level: wire.Reader}
	older := storage.Record{Kind: storage.RecGrant, Obj: 2, TS: wire.OTS{Ver: 3, Node: 2},
		Replicas: wire.ReplicaSet{Owner: 2}, Level: wire.Owner}
	r.ApplyRecord(newer)
	r.ApplyRecord(older)
	if o := r.Objects[2]; o.Replicas.Owner != 1 || o.Level != wire.Reader {
		t.Fatalf("stale grant won: %+v", o)
	}
	if r.Grants != 2 {
		t.Fatalf("grants = %d, want 2", r.Grants)
	}
}

func TestMemstorageSnapshotRetainsTail(t *testing.T) {
	ms := memstorage.New()
	log := storage.NewLog(ms, nil)
	defer log.Close()

	if err := log.Append(storage.Record{Kind: storage.RecCommit, Obj: 1, Version: 1, Data: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	// Snapshot whose scan races a concurrent append: the raced record must
	// survive replay via the retained WAL tail.
	err := ms.Snapshot(func(emit func(storage.SnapObject) error) error {
		if err := log.Append(storage.Record{Kind: storage.RecCommit, Obj: 2, Version: 3, Data: []byte("b")}); err != nil {
			return err
		}
		return emit(storage.SnapObject{Obj: 1, Version: 1, Data: []byte("a"), Valid: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := ms.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if o := r.Objects[1]; o == nil || !o.Valid || string(o.Data) != "a" {
		t.Fatalf("snapshotted object: %+v", o)
	}
	if o := r.Objects[2]; o == nil || !o.Valid || o.Version != 3 {
		t.Fatalf("raced append lost: %+v", o)
	}
}

func TestLogGroupCommitConcurrent(t *testing.T) {
	ms := memstorage.New()
	log := storage.NewLog(ms, nil)

	const writers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				obj := wire.ObjectID(w*per + i)
				if err := log.Append(storage.Record{Kind: storage.RecCommit, Obj: obj, Version: 1, Data: []byte{byte(w)}}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := log.AppendedSinceMark(); got != writers*per {
		t.Fatalf("appended = %d, want %d", got, writers*per)
	}
	log.Close()
	if err := log.Append(storage.Record{Kind: storage.RecCommit, Obj: 1}); err != storage.ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	r, err := ms.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Objects) != writers*per {
		t.Fatalf("recovered %d objects, want %d", len(r.Objects), writers*per)
	}
}
