package checker_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"zeus/internal/checker"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
)

// TestParallelPipelinesStrictlySerializable is the concurrency stress for the
// lock-stripped engines: every worker of every node runs transactions at
// once, with sharded dispatch forced on so the per-pipe/per-object handler
// goroutines are exercised even on single-core (-race) hosts. Each worker
// hammers a private object (disjoint keys: independent pipelines must never
// interfere) and, every few ops, a shared counter (overlapping keys:
// ownership arbitration + local-commit conflicts under full concurrency).
// The committed history must be strictly serializable.
func TestParallelPipelinesStrictlySerializable(t *testing.T) {
	const (
		nodes     = 3
		workers   = 4
		opsPerWkr = 10
		sharedN   = 2
	)
	// A node runs min(Workers, GOMAXPROCS) dispatch shards: raise GOMAXPROCS
	// so that it shards, with workers shards, whatever the host's core count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	opts := cluster.DefaultOptions(nodes)
	opts.Workers = workers
	c := cluster.New(opts)
	defer c.Close()

	// Shared counters (contended) and one private counter per (node, worker)
	// (disjoint). Values double as versions: seeded as version 1.
	for s := 0; s < sharedN; s++ {
		c.SeedAt(wireObj(uint64(1+s)), 0, u64(1))
	}
	private := func(node, worker int) uint64 { return uint64(100 + node*16 + worker) }
	for n := 0; n < nodes; n++ {
		for w := 0; w < workers; w++ {
			c.SeedAt(wireObj(private(n, w)), wireNode(n), u64(1))
		}
	}

	var mu sync.Mutex
	var history []checker.Tx
	committed := make(map[uint64]int) // obj -> committed increments
	record := func(tx checker.Tx) {
		mu.Lock()
		tx.ID = len(history)
		history = append(history, tx)
		for _, wr := range tx.Writes {
			committed[wr.Obj]++
		}
		mu.Unlock()
	}

	increment := func(db dbapi.DB, worker int, obj uint64) error {
		var rec checker.Tx
		err := dbapi.Run(db, worker, func(tx dbapi.Txn) error {
			start := time.Now().UnixNano()
			v, err := tx.Get(obj)
			if err != nil {
				return err
			}
			ver := val(v)
			if err := tx.Set(obj, u64(ver+1)); err != nil {
				return err
			}
			rec = checker.Tx{
				Start:  start,
				Reads:  []checker.Access{{Obj: obj, Ver: ver}},
				Writes: []checker.Access{{Obj: obj, Ver: ver + 1}},
			}
			return nil
		})
		if err != nil {
			return err
		}
		rec.End = time.Now().UnixNano()
		record(rec)
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, nodes*workers)
	for n := 0; n < nodes; n++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(n, w int) {
				defer wg.Done()
				db := c.Node(n).DB()
				for i := 0; i < opsPerWkr; i++ {
					obj := private(n, w)
					if i%3 == 2 {
						obj = uint64(1 + (n+w+i)%sharedN)
					}
					if err := increment(db, w, obj); err != nil {
						errs <- fmt.Errorf("node %d worker %d op %d obj %d: %w", n, w, i, obj, err)
						return
					}
				}
			}(n, w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := checker.Check(history); err != nil {
		t.Fatalf("history of %d transactions not strictly serializable: %v",
			len(history), err)
	}

	// Drain the pipelines before auditing: replication is asynchronous
	// (§5.2), so replicas may legitimately lag the committed history until
	// the coordinators' slots validate. A pipeline that cannot drain (e.g.
	// a message stranded in a coalescer) is itself a liveness bug.
	if !c.WaitIdle(10 * time.Second) {
		t.Fatal("commit pipelines did not drain (stranded slots)")
	}

	// Every committed increment must be visible in the final values.
	mu.Lock()
	defer mu.Unlock()
	for obj, n := range committed {
		var final uint64
		err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
			v, err := tx.Get(obj)
			if err != nil {
				return err
			}
			final = val(v)
			return nil
		})
		if err != nil {
			t.Fatalf("final read of %d: %v", obj, err)
		}
		if final != uint64(1+n) {
			t.Fatalf("obj %d: final value %d, want %d (lost updates)", obj, final, 1+n)
		}
	}
}
