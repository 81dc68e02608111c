package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/loadgen"
	"zeus/internal/wire"
)

// ScalingRow is one point of the worker-scaling ablation.
type ScalingRow struct {
	Workers int
	Ops     int
	Elapsed time.Duration
	Tps     float64
	NsPerOp float64
	Speedup float64 // vs the 1-worker row
}

// ScalingResult is the multi-core scaling ablation: the same fully-local
// write-transaction workload (each worker hammering its own object, the
// paper's locality sweet spot) with 1→8 worker pipelines driven
// concurrently. After the engine lock split (per-pipe commit state, striped
// ownership maps, per-pipe/per-object sharded dispatch) the only shared
// state between workers is the store shard and the transport, so throughput
// should track min(workers, cores) — the §7 argument that worker threads
// never block each other. On a single-core host the sweep degenerates to a
// fairness check (all rows within noise of each other); the MaxProcs field
// records which regime produced the numbers.
type ScalingResult struct {
	MaxProcs int
	Rows     []ScalingRow
}

// Scaling runs the worker-scaling ablation on a 3-node in-memory cluster.
func Scaling(s Scale) ScalingResult {
	ops := s.OpsPerWorker * 10
	if ops < 2000 {
		ops = 2000
	}
	res := ScalingResult{MaxProcs: runtime.GOMAXPROCS(0)}
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
		n.WaitReplication(10 * time.Second)
		c.Close()

		total := ops * workers // attempts: disjoint write streams abort nothing
		row := ScalingRow{
			Workers: workers,
			Ops:     total,
			Elapsed: elapsed,
			Tps:     float64(total) / elapsed.Seconds(),
			NsPerOp: float64(elapsed.Nanoseconds()) / float64(total),
		}
		if len(res.Rows) > 0 {
			row.Speedup = row.Tps / res.Rows[0].Tps
		} else {
			row.Speedup = 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Print renders the ablation.
func (r ScalingResult) Print(w io.Writer) {
	printHeader(w, fmt.Sprintf("Scaling: local write tx vs worker pipelines (GOMAXPROCS=%d)", r.MaxProcs))
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  workers=%d  %7d ops in %8s  %s tx/s  %7.0f ns/op  speedup %.2fx\n",
			row.Workers, row.Ops, row.Elapsed.Round(time.Millisecond),
			fmtTps(row.Tps), row.NsPerOp, row.Speedup)
	}
	if r.MaxProcs == 1 {
		fmt.Fprintf(w, "  (single-core host: the sweep checks fairness, not speedup)\n")
	}
}
