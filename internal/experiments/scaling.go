package experiments

import (
	"math/rand"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/loadgen"
	"zeus/internal/wire"
)

// Scaling is the multi-core scaling ablation, on a 3-node in-memory
// cluster: the same fully-local write-transaction workload (each worker
// hammering its own object, the paper's locality sweet spot) with 1→8 worker
// pipelines driven concurrently. After the engine lock split (per-pipe commit
// state, striped ownership maps, per-pipe/per-object sharded dispatch) the
// only shared state between workers is the store shard and the transport, so
// throughput should track min(workers, cores) — the §7 argument that worker
// threads never block each other. On a single-core host the sweep
// degenerates to a fairness check (all rows within noise of each other).
func Scaling(s Scale) Table {
	ops := s.OpsPerWorker * 10
	if ops < 2000 {
		ops = 2000
	}
	t := Table{
		Title: "Scaling: local write tx vs worker pipelines",
		Cols:  []string{"workers", "ops", "elapsed", "tx/s", "ns/op", "speedup"},
		Notes: procsNote("the sweep checks fairness, not speedup"),
	}
	for _, workers := range []int{1, 2, 4, 8} {
		opts := cluster.DefaultOptions(3)
		opts.Workers = workers
		// A node dispatches on min(workers, GOMAXPROCS) shards: the sweep
		// shards on multi-core hosts and stays inline on single-core ones.
		c := cluster.New(opts)

		// One hot object per worker, all owned by node 0: disjoint write
		// streams through disjoint pipelines.
		for w := 0; w < workers; w++ {
			c.SeedAt(wire.ObjectID(1+w), 0, make([]byte, 128))
		}
		n := c.Node(0)
		run := closedLoop(loadgen.Config{Arrival: loadgen.ClosedLoop{Ops: ops}}, workers, []bench.Op{
			func(w int, _ *rand.Rand) error {
				obj := uint64(1 + w)
				tx := n.BeginOn(w)
				v, err := tx.Get(obj)
				if err != nil {
					tx.Abort()
					return err
				}
				// Set adopts its argument as the published version: a fresh
				// value per write, never the last one rewritten in place.
				next := append([]byte(nil), v...)
				next[0]++
				if err := tx.Set(obj, next); err != nil {
					tx.Abort()
					return err
				}
				return tx.Commit()
			},
		})
		elapsed := run.Elapsed
		n.CommitEngine().WaitIdle(10 * time.Second)
		c.Close()

		total := ops * workers // attempts: disjoint write streams abort nothing
		tps := float64(total) / elapsed.Seconds()
		speedup := 1.0
		if len(t.Rows) > 0 {
			speedup = ratio(tps, t.Num(0, "tx/s"))
		}
		t.add(workers, total, elapsed, tps, float64(elapsed.Nanoseconds())/float64(total), speedup)
	}
	return t
}
