package memstorage_test

import (
	"testing"

	"zeus/internal/storage"
	"zeus/internal/storage/memstorage"
	"zeus/internal/wire"
)

// TestRecoverReopensAClosedStore: a closed store refuses appends but keeps
// what was written, and the Recover a restarted node runs first returns those
// records, advances the incarnation and takes appends again.
func TestRecoverReopensAClosedStore(t *testing.T) {
	s := memstorage.New()
	appendCommit := func(obj wire.ObjectID, data string) error {
		return s.Append([]storage.Record{{Kind: storage.RecCommit, Obj: obj, Version: 1, Data: []byte(data)}})
	}
	if err := appendCommit(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := appendCommit(2, "b"); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	r, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if o := r.Objects[1]; o == nil || !o.Valid || string(o.Data) != "a" || len(r.Objects) != 1 || r.Incarnation != 1 {
		t.Fatalf("first Recover: %d objects, object 1 %+v, incarnation %d; want object 1 alone at %q, incarnation 1",
			len(r.Objects), o, r.Incarnation, "a")
	}
	if err := appendCommit(3, "c"); err != nil {
		t.Fatalf("Append after Recover: %v", err)
	}
	if r, err = s.Recover(); err != nil {
		t.Fatal(err)
	}
	if o := r.Objects[3]; o == nil || string(o.Data) != "c" || len(r.Objects) != 2 || r.Incarnation != 2 {
		t.Fatalf("second Recover: %d objects, object 3 %+v, incarnation %d; want objects 1 and 3, incarnation 2",
			len(r.Objects), o, r.Incarnation)
	}
}
