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

// TestTCPAllocCeiling holds the replication path's decode side to its
// allocation count without a benchmark run: a 1-object read-modify-write on a
// 3-node cluster over loopback TCP, where every R-INV, R-ACK and R-VAL is
// marshalled, framed and decoded. The count is process-wide, coordinator and
// both followers, taken after the pipeline drained. On top of the two
// objects and three sixteenths the same transaction costs on the hub (the
// root package's TestAllocCeilings: Set's private copy, which is the version
// the owner publishes, and the Slot), each follower allocates the R-INV's
// payload slab — the copy it keeps as its replica's value — and the decoders
// carve the records of two R-INVs, two R-ACKs and two R-VALs from 16-record
// chunks: 2 + 2 + 9/16.
// Not built under -race: the detector allocates on its own.
func TestTCPAllocCeiling(t *testing.T) {
	opts := DefaultOptions(3)
	opts.Fabric = FabricTCP
	opts.Workers = 2
	c := New(opts)
	defer c.Close()
	c.SeedAt(1, 0, make([]byte, 8))
	owner := c.Node(0)
	const txs = 2000
	best := 0.0
	for round := 0; round < 3; round++ { // lease renewals and timers only ever add: keep the smallest
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < txs; i++ {
			tx := owner.BeginOn(0)
			v, err := tx.Get(1)
			if err != nil {
				t.Fatal(err)
			}
			var next [8]byte // Set copies it; it never leaves this stack
			binary.LittleEndian.PutUint64(next[:], binary.LittleEndian.Uint64(v)+1)
			if err := tx.Set(1, next[:]); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
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
	t.Logf("mallocs per read-modify-write over TCP: %.2f", best)
	// Achieved: 4.62–4.68 (4.56 and the timers' share); one more allocation
	// per transaction, at any of the three nodes, crosses the ceiling.
	if best >= 5.5 {
		t.Errorf("%.2f mallocs per transaction, must stay below 5.5", best)
	}
}

// TestRunAllocCeilings holds the path the benchmark, loadgen and zeus.Node's
// Update/View drive — dbapi.Run and RunRO on Node.DB() — to its allocation
// count on a 3-node hub cluster, process-wide, after the pipelines drained.
// Through the dbapi.Txn interface the Tx escapes, so it lives on the heap and
// is the worker's recycled one; a write transaction then makes one private
// copy per Set (the versions it publishes) and the commit's Slot, which holds
// the R-INV and up to four Updates, plus three sixteenths of a chunk (each
// follower's R-ACK, the coordinator's R-VAL). Past four objects the access
// set spills to a slice and an id index (two objects) and the Updates to
// slices of their own, core's and the copy the Slot keeps: 5 + 3 + 2 + 1 = 11
// for five writes, and 13.3 measured, against 18.3 when Get copied and each
// attempt made its Tx. A read-only transaction makes nothing. The bodies stage
// into a buffer made once: what the application allocates is not the engine's
// count. Each ceiling is one above what the code achieves (2.2, 3.2, 4.3,
// 13.3, 0), so the next Tx that escapes unrecycled, or Updates slice on the
// heap, fails here.
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
	buf := make([]byte, 8)
	bump := func(tx dbapi.Txn, obj uint64) error {
		v, err := tx.Get(obj)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(v)+1)
		return tx.Set(obj, buf)
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
			if err := tx.Set(obj, buf); err != nil {
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
		{"1-object read-modify-write", measure(db, false, writeFirst(1)), 3},
		{"2-object transfer", measure(db, false, writeFirst(2)), 4},
		{"3-write amalgamate", measure(db, false, amalgamate), 5},
		{"5-write transaction", measure(db, false, writeFirst(5)), 14},
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
