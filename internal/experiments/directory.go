package experiments

import (
	"fmt"
	"math/rand"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/loadgen"
	"zeus/internal/wire"
)

// sumOwnStats totals the ownership-engine counters across the cluster.
func sumOwnStats(c *cluster.Cluster, nodes int) (t struct {
	Requests, Succeeded, Nacks, Timeouts uint64
}) {
	for i := 0; i < nodes; i++ {
		s := c.Node(i).OwnershipEngine().Stats()
		t.Requests += s.Requests
		t.Succeeded += s.Succeeded
		t.Nacks += s.Nacks
		t.Timeouts += s.Timeouts
	}
	return t
}

// Directory is the sharded-directory ablation (§6.2), on a 6-node in-memory
// cluster (the paper's testbed size): the same hot-directory workload —
// every node fighting for ownership of a pool of hot objects, so ownership
// REQs (not commits) dominate — swept across directory shard counts. With one
// shard all arbitration funnels through one three-node driver set (the
// paper's fixed directory); as shards grow, arbitration spreads across the
// cluster and REQ throughput should scale with cores. On a single-core host
// the sweep degenerates to a flat-not-degrading check.
func Directory(s Scale) Table {
	const nodes = 6
	objects := 8 * nodes
	t := Table{
		Title: fmt.Sprintf("Directory sharding: ownership-REQ throughput vs shard count (%d nodes, %d hot objects)", nodes, objects),
		Cols:  []string{"shards", "acquired", "elapsed", "acq/s", "reqs", "nacks", "timeouts", "speedup"},
		Notes: procsNote("arbitration cannot parallelize; the sweep checks flat-not-degrading"),
	}
	for _, shards := range []int{1, 4, 16, 64} {
		opts := cluster.DefaultOptions(nodes)
		opts.Workers = s.Workers
		opts.View.DirShards = shards
		c := cluster.New(opts)
		c.SeedRange(1, objects, make([]byte, 64))

		before := sumOwnStats(c, nodes)

		// Acquire stormers: every node walks the hot-object pool with its
		// own stride, so each object's ownership keeps ping-ponging between
		// nodes and (almost) every acquisition issues a REQ.
		ops := make([]bench.Op, nodes)
		for n := range ops {
			eng := c.Node(n).OwnershipEngine()
			at := make([]int, s.Workers) // each worker's place in its walk
			for w := range at {
				at[w] = n + w*nodes
			}
			ops[n] = func(worker int, _ *rand.Rand) error {
				obj := wire.ObjectID(1 + at[worker]%objects)
				at[worker] += 1 + n // node-specific stride keeps acquirers colliding
				return eng.AcquireOwnership(obj)
			}
		}
		elapsed := closedLoop(loadgen.Config{Arrival: loadgen.ClosedLoop{}, Duration: s.Duration}, s.Workers, ops).Elapsed

		after := sumOwnStats(c, nodes)
		c.Close()

		acquired := after.Succeeded - before.Succeeded
		tps := float64(acquired) / elapsed.Seconds()
		speedup := 1.0
		if len(t.Rows) > 0 {
			speedup = ratio(tps, t.Num(0, "acq/s"))
		}
		t.add(shards, acquired, elapsed, tps, after.Requests-before.Requests,
			after.Nacks-before.Nacks, after.Timeouts-before.Timeouts, speedup)
	}
	return t
}
