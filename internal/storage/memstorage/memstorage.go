// Package memstorage is the in-memory storage driver: the default for
// tests and in-process clusters. It keeps the WAL as record slices and the
// snapshot as a map, so a restarted node in the same process recovers real
// state while benchmarks pay only a mutex and a slice append per group
// commit. The segment-roll/snapshot choreography mirrors filestorage so
// the replay path is exercised identically by both drivers.
package memstorage

import (
	"errors"
	"sync"

	"zeus/internal/storage"
)

// Store implements storage.Storage in memory. A Store survives the node it
// belongs to: the cluster harness keeps it across Kill/Restart so recovery
// replays the same bytes a file-backed node would read from disk.
type Store struct {
	mu     sync.Mutex
	snap   []storage.SnapObject
	wal    []storage.Record // records since the snapshot
	incar  uint64           // advanced once per Recover (process lifetime)
	closed bool
}

// New returns an empty in-memory store.
func New() *Store { return &Store{} }

// Append implements storage.Storage. Records are retained by reference:
// the storage contract freezes them at this call.
func (s *Store) Append(recs []storage.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("memstorage: closed")
	}
	s.wal = append(s.wal, recs...)
	return nil
}

// Snapshot implements storage.Storage. The "segment roll" marks the WAL
// length before the scan; records appended during the scan stay in the
// retained tail, so replay (idempotent) never loses them.
func (s *Store) Snapshot(scan func(emit func(storage.SnapObject) error) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("memstorage: closed")
	}
	rolled := len(s.wal)
	s.mu.Unlock()

	var objs []storage.SnapObject
	err := scan(func(o storage.SnapObject) error {
		objs = append(objs, o)
		return nil
	})
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap = objs
	s.wal = append([]storage.Record(nil), s.wal[rolled:]...)
	return nil
}

// Recover implements storage.Storage. It also reopens a closed store:
// recovering is the first thing a restarted node does with the store its
// previous incarnation closed, as a restarted process re-opens its data
// directory.
func (s *Store) Recover() (*storage.Recovered, error) {
	s.mu.Lock()
	s.closed = false
	snap := s.snap
	wal := append([]storage.Record(nil), s.wal...)
	s.incar++
	incar := s.incar
	s.mu.Unlock()

	r := storage.NewRecovered()
	r.Incarnation = incar
	for _, o := range snap {
		r.ApplySnap(o)
	}
	for _, rec := range wal {
		r.ApplyRecord(rec)
	}
	return r, nil
}

// Close implements storage.Storage. The retained WAL and snapshot stay for
// the next Recover (a crashed process's disk does not disappear).
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}
