//go:build !race

package cluster

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"zeus/internal/dbapi"
	"zeus/internal/wire"
)

// TestTCPAllocCeiling holds the decode side of the two message paths to its
// allocation count without a benchmark run, on a 3-node cluster over loopback
// TCP where every message is marshalled, framed and decoded. The counts are
// process-wide, all three nodes, taken after the pipelines drained.
//
// A 1-object read-modify-write: on top of what the same transaction costs on
// the hub (the root package's TestAllocCeilings: the version the owner
// publishes, which Set adopts from the body, the chunked Slot, and the
// R-ACKs and R-VALs, a sixteenth a message), each follower allocates the
// R-INV's payload slab — the copy it keeps as its replica's value — and the
// decoders carve the records of two R-INVs from 16-record chunks, and those
// of the R-ACKs and R-VALs: 1 + 2 + 3/16, plus the acknowledgements' share.
// An R-ACK or R-VAL names a window of a pipe's slots, so that share is a
// fraction of the 7/16 it was while each slot had its own (3.66 then).
//
// An ownership move to an existing replica, the mover driving its own request
// (eight idle objects taking turns, as in TestAllocCeilings): nothing is
// retained, and the INV, the two remote ACKs and the VAL are each a sixteenth
// where they are emitted and a sixteenth per read loop that decodes them —
// 10/16, the hub's count, plus what the sockets' timers and flushes add.
// Not built under -race: the detector allocates on its own.
func TestTCPAllocCeiling(t *testing.T) {
	opts := DefaultOptions(3)
	opts.Fabric = FabricTCP
	opts.Workers = 2
	c := New(opts)
	defer c.Close()
	const movers = 8
	for obj := wire.ObjectID(1); obj <= 1+movers; obj++ {
		c.SeedAt(obj, 0, make([]byte, 8))
	}
	owner := c.Node(0)
	const txs = 2000
	measure := func(body func(i int)) float64 {
		best := 0.0
		for round := 0; round < 3; round++ { // lease renewals and timers only ever add: keep the smallest
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < txs; i++ {
				body(i)
			}
			if !owner.WaitReplication(10 * time.Second) {
				t.Fatal("pipelines never drained")
			}
			runtime.ReadMemStats(&after)
			per := float64(after.Mallocs-before.Mallocs) / txs
			if round == 0 || per < best {
				best = per
			}
		}
		return best
	}
	rmw := measure(func(int) {
		tx := owner.BeginOn(0)
		v, err := tx.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		next := make([]byte, 8) // the version this write publishes: Set adopts it
		binary.LittleEndian.PutUint64(next, binary.LittleEndian.Uint64(v)+1)
		if err := tx.Set(1, next); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	move := measure(func(i int) {
		mover := c.Node((i/movers + 1) % 2).OwnershipEngine()
		if err := mover.AcquireOwnership(wire.ObjectID(2 + i%movers)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("mallocs over TCP: %.2f per read-modify-write, %.2f per ownership move", rmw, move)
	// Achieved: 3.23 (3.66 while each slot had its own R-ACKs and R-VAL,
	// 4.62–4.68 while Set copied and the Slot was an allocation of its own)
	// and 0.7–1.7 (10.6–10.9 before the ownership kinds were chunked). One
	// more allocation per transaction, at any of the three nodes, crosses the
	// first ceiling; so does losing the windows and one allocation more. A
	// move takes ~100 µs of wall clock here, so the timers' and lease
	// renewals' share moves with the host's load; its ceiling is what one
	// ownership kind decoded (two to three a move) or emitted off the chunks
	// again would cross — a single added allocation is the hub row's to catch.
	if rmw >= 4.2 {
		t.Errorf("%.2f mallocs per transaction, must stay below 4.2", rmw)
	}
	if move >= 2.5 {
		t.Errorf("%.2f mallocs per ownership move, must stay below 2.5", move)
	}
}

// TestRunAllocCeilings holds the path the benchmark, loadgen and zeus.Node's
// Update/View drive — dbapi.Run and RunRO on Node.DB() — to its allocation
// count on a 3-node hub cluster, process-wide, after the pipelines drained.
// Through the dbapi.Txn interface the Tx escapes, so it lives on the heap: it
// is the worker's own, which its lease holds. A write transaction makes the versions it
// publishes — one fresh buffer per Set, which the body makes (as every
// application must: Set adopts it) and nothing copies — plus a sixteenth of
// a chunk for the commit's Slot, which holds the R-INV and up to four
// Updates, and a share of the sixteenths the followers' R-ACKs and the
// coordinator's R-VAL take: each names a window of the pipe's slots (four
// sixteenths in all while each slot had its own). Past four objects the
// access set spills to a slice and an id index and the Updates to slices of
// their own, core's and the copy the Slot keeps: 12.1 measured for five
// writes, against 12.3 while each slot had its own R-ACKs and R-VAL, 13.3
// while Set copied and the Slot was an allocation of its own, and 18.3 when
// Get copied and each attempt made its Tx. A read-only transaction makes
// nothing. Each ceiling is one above what the code achieves, rounded up
// (1.1, 2.1, 3.1, 12.1, 0), so the next Tx that escapes per attempt, copy of
// a staged value, or Updates slice on the heap, fails here.
func TestRunAllocCeilings(t *testing.T) {
	opts := DefaultOptions(3)
	opts.Workers = 2
	c := New(opts)
	defer c.Close()
	const objects = 5
	for obj := uint64(1); obj <= objects; obj++ {
		c.SeedAt(wire.ObjectID(obj), 0, make([]byte, 8))
	}
	owner := c.Node(0)
	db, readerDB := owner.DB(), c.Node(1).DB()
	bump := func(tx dbapi.Txn, obj uint64) error {
		v, err := tx.Get(obj)
		if err != nil {
			return err
		}
		next := make([]byte, 8) // the version this write publishes: Set adopts it
		binary.LittleEndian.PutUint64(next, binary.LittleEndian.Uint64(v)+1)
		return tx.Set(obj, next)
	}
	writeFirst := func(n uint64) func(dbapi.Txn) error {
		return func(tx dbapi.Txn) error {
			for obj := uint64(1); obj <= n; obj++ {
				if err := bump(tx, obj); err != nil {
					return err
				}
			}
			return nil
		}
	}
	amalgamate := func(tx dbapi.Txn) error { // Smallbank's: three reads, three writes
		for obj := uint64(1); obj <= 3; obj++ {
			if _, err := tx.Get(obj); err != nil {
				return err
			}
		}
		for obj := uint64(1); obj <= 3; obj++ {
			if err := tx.Set(obj, make([]byte, 8)); err != nil {
				return err
			}
		}
		return nil
	}
	readOne := func(tx dbapi.Txn) error {
		_, err := tx.Get(1)
		return err
	}
	const txs = 2000
	measure := func(on dbapi.DB, ro bool, fn func(dbapi.Txn) error) float64 {
		run := dbapi.Run
		if ro {
			run = dbapi.RunRO
		}
		best := 0.0
		for round := 0; round < 3; round++ { // timers and lease renewals only ever add
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < txs; i++ {
				if err := run(on, 0, fn); err != nil {
					t.Fatal(err)
				}
			}
			if !owner.WaitReplication(10 * time.Second) {
				t.Fatal("pipelines never drained")
			}
			runtime.ReadMemStats(&after)
			if per := float64(after.Mallocs-before.Mallocs) / txs; round == 0 || per < best {
				best = per
			}
		}
		return best
	}
	type row struct {
		name         string
		got, ceiling float64
	}
	rows := []row{
		{"1-object read-modify-write", measure(db, false, writeFirst(1)), 2},
		{"2-object transfer", measure(db, false, writeFirst(2)), 3},
		{"3-write amalgamate", measure(db, false, amalgamate), 4},
		{"5-write transaction", measure(db, false, writeFirst(5)), 13},
	}
	if !c.WaitIdle(10 * time.Second) { // the reader refuses the read until the last R-VAL reached it
		t.Fatal("WaitIdle timed out")
	}
	rows = append(rows, row{"1-read read-only", measure(readerDB, true, readOne), 1})
	for _, r := range rows {
		t.Logf("%s: %.2f mallocs per transaction", r.name, r.got)
		if r.got >= r.ceiling {
			t.Errorf("%s: %.2f mallocs per transaction, must stay below %.0f", r.name, r.got, r.ceiling)
		}
	}
}
