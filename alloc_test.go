//go:build !race

package zeus_test

import (
	"runtime"
	"testing"
	"time"

	"zeus"
)

// Allocation ceilings for the three transaction shapes the benchmark
// workloads are made of, and for the ownership move, on a 3-node hub cluster.
// The count is process-wide — coordinator, both followers, transports and the
// background loops — and taken after the pipelines drained, so it is what
// `allocs_per_op` in benchmark/ is made of. Each ceiling is one above what the code achieves, so
// the next allocation added to the path fails `go test`; CHANGES.md (PR 14,
// PR 15 and PR 24 for the move, PR 19 for the chunked R-ACK/R-VAL records,
// PR 23 for Get's view and the Updates inside the slot) lists what each
// remaining allocation is for. The transactions here keep their Tx on the stack; the
// same shapes through dbapi.Run, where the Tx escapes and is the worker's own, and
// what decoding commit messages costs on a real fabric (the hub hands them
// over by pointer) are TestRunAllocCeilings' and TestTCPAllocCeiling's to
// hold (internal/cluster).
// Not built under -race: the detector allocates on its own.

// mallocsPerTx runs txs transactions, waits for replication, and returns the
// heap objects the process allocated per transaction — the smallest of three
// rounds, since lease renewals and timers only ever add.
func mallocsPerTx(t *testing.T, n *zeus.Node, txs int, body func(i int)) float64 {
	t.Helper()
	best := 0.0
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < txs; i++ {
			body(i)
		}
		if !n.WaitReplication(10 * time.Second) {
			t.Fatal("pipelines never drained")
		}
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / float64(txs)
		if round == 0 || per < best {
			best = per
		}
	}
	return best
}

// liveHeap returns the bytes reachable after two collections (a sync.Pool
// keeps what it held for one more cycle).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFootprintCeilings: live heap follows the data. An idle 3-node cluster
// holds what its goroutines and tables need — no pre-sized delivery buffers
// (seven 65 536-frame hub inboxes were 22 MB of it) — and a seeded object
// costs, per replica, its record (64 B), its index slots and a third of the
// payload the three replicas share: nothing pinned beside them (the seeded
// ring entry and a dead copy of the payload were another 112 B). 30 000
// objects is the benchmark's population.
func TestFootprintCeilings(t *testing.T) {
	const replicas, payload = 3, 64
	for _, row := range []struct {
		objects int
		ceiling float64
	}{{10000, 112}, {30000, 100}} {
		before := liveHeap()
		c := zeus.New(zeus.Options{Nodes: 3})
		idle := liveHeap() - before
		for obj := 0; obj < row.objects; obj++ {
			c.Seed(uint64(obj), obj%3, make([]byte, payload))
		}
		perReplica := float64(liveHeap()-before-idle) / float64(row.objects*replicas)
		c.Close()
		t.Logf("idle cluster %.2f MB; %.1f bytes per seeded replica of a %d-byte payload, %d objects",
			float64(idle)/1e6, perReplica, payload, row.objects)
		if idle >= 4<<20 {
			t.Errorf("an idle 3-node cluster holds %.2f MB of live heap, must stay below 4 MB", float64(idle)/1e6)
		}
		// Achieved: 0.31 MB, and 64 + 64/3 + the index: 99.7 at 10 000
		// objects, 96.7 at 30 000. The index's share moves with where each
		// shard's population falls between two table lengths — 11 to 18 B
		// an entry, 13.5 on average, over stores of 2 thousand to 2 million
		// objects in the 64 shards of a host with up to 8 processors.
		if perReplica > row.ceiling {
			t.Errorf("%d objects: a seeded replica costs %.0f bytes of live heap, must stay within %.0f",
				row.objects, perReplica, row.ceiling)
		}
	}
}

// rmwMallocs is a 1-object read-modify-write of object 1 at node 0: the
// version the commit publishes — counterBytes' buffer, which Set adopts and,
// on the hub, all three replicas share — plus four sixteenths: the slot (the
// R-INV and its Updates), each follower's R-ACK and the coordinator's R-VAL
// are records of 16-record chunks. Get returns a view and the Tx stays on
// this function's stack.
func rmwMallocs(t *testing.T, c *zeus.Cluster) float64 {
	owner := c.Node(0)
	return mallocsPerTx(t, owner, allocTxs, func(i int) {
		tx := owner.BeginOn(0)
		v, err := tx.Get(1)
		must(t, err)
		must(t, tx.Set(1, counterBytes(counterVal(v)+1)))
		must(t, tx.Commit())
	})
}

// moveMallocs is an ownership move between nodes 0 and 1, the mover driving
// its own request. Nothing outlives it; what crosses the wire is carved from
// 16-record chunks where it is emitted and where the hub decodes it: the INV
// (one emission, two decodes), the two remote arbiters' ACKs (two emissions,
// two decodes) and the VAL (one emission, two decodes) — ten sixteenths of
// an allocation. Eight idle objects take turns, so a move's VALs have landed
// by the time its object moves back; bouncing a single object would mostly
// count the NACK, the back-off timer and a millisecond of lease renewals
// behind it (nacks/op in BenchmarkOwnershipTransfer), which differ from host
// to host.
func moveMallocs(t *testing.T, c *zeus.Cluster) float64 {
	const movers = 8
	for obj := uint64(10); obj < 10+movers; obj++ {
		c.Seed(obj, 0, counterBytes(0))
	}
	return mallocsPerTx(t, c.Node(0), allocTxs, func(i int) {
		must(t, c.Node((i/movers+1)%2).AcquireOwnership(uint64(10+i%movers)))
	})
}

const allocTxs = 2000

func must(t *testing.T, err error) {
	if err != nil {
		t.Helper()
		t.Fatal(err)
	}
}

func TestAllocCeilings(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 3, Workers: 2})
	defer c.Close()
	c.Seed(1, 0, counterBytes(0))
	c.Seed(2, 0, counterBytes(1000))
	owner, reader := c.Node(0), c.Node(1)

	rmw := rmwMallocs(t, c)
	// 2-object transfer: one more version.
	transfer := mallocsPerTx(t, owner, allocTxs, func(i int) {
		tx := owner.BeginOn(1)
		a, err := tx.Get(1)
		must(t, err)
		b, err := tx.Get(2)
		must(t, err)
		must(t, tx.Set(1, counterBytes(counterVal(a)-1)))
		must(t, tx.Set(2, counterBytes(counterVal(b)+1)))
		must(t, tx.Commit())
	})
	// 1-read RO transaction on a reader replica: nothing, Get returns a view.
	// WaitReplication spoke for the owner; the reader refuses the read until
	// the last transfer's R-VAL has reached it too.
	for {
		tx := reader.BeginRO()
		if _, err := tx.Get(1); err == nil {
			must(t, tx.Commit())
			break
		}
		tx.Abort()
	}
	ro := mallocsPerTx(t, reader, allocTxs, func(i int) {
		tx := reader.BeginRO()
		_, err := tx.Get(1)
		must(t, err)
		must(t, tx.Commit())
	})
	move := moveMallocs(t, c)

	// The same write and move with every engine recording metrics: a record
	// site pays a nil check and an atomic, so they cost what they cost with
	// observability off. A metric name built per event (fmt.Sprintf), a
	// registry lookup on the record path, or any other allocation per record
	// adds a whole allocation to the operation that records.
	co := zeus.New(zeus.Options{Nodes: 3, Workers: 2, Observability: true})
	defer co.Close()
	co.Seed(1, 0, counterBytes(0))
	rmwObs, moveObs := rmwMallocs(t, co), moveMallocs(t, co)

	t.Logf("mallocs per transaction: rmw %.2f, transfer %.2f, read-only %.2f; per ownership move %.2f; with observability: rmw %.2f, move %.2f",
		rmw, transfer, ro, move, rmwObs, moveObs)
	// Achieved: 1.09, 2.09, 0 and 0.25 (the hundredths are timers and lease
	// renewals; the two write shapes cost 1.27 and 2.26 while every slot had
	// an R-ACK from each follower and an R-VAL of its own, where a window of
	// slots now shares one of each,
	// 2.2 and 3.3 while Set copied and the slot was an allocation of its own,
	// 4.3 and 6.3 while Get copied and the Updates were a slice of their own,
	// 7 and 9 while every R-ACK and R-VAL was its own allocation too; a move
	// 0.65–0.86 while the hub decoded each ownership message into a record of
	// its destination's, 10.1 while each of its ten records was an allocation
	// of its own, 22 before its self-addressed steps ran inline), and the same
	// with observability on. One more
	// allocation per transaction reaches the ceiling; a move has a whole
	// allocation of headroom under its own, so what observability adds to
	// either is held below half an allocation instead.
	for _, c := range []struct {
		name    string
		got     float64
		ceiling float64
	}{
		{"1-object read-modify-write", rmw, 2},
		{"2-object transfer", transfer, 3},
		{"1-read read-only", ro, 1},
		{"ownership move", move, 1.3},
		{"1-object read-modify-write, observability on", rmwObs, 2},
		{"ownership move, observability on", moveObs, 1.3},
		{"what observability adds to a read-modify-write", rmwObs - rmw, 0.5},
		{"what observability adds to an ownership move", moveObs - move, 0.5},
	} {
		if c.got >= c.ceiling {
			t.Errorf("%s: %.2f mallocs, must stay below %.1f", c.name, c.got, c.ceiling)
		}
	}
}
