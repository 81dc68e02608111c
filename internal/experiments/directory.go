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

// DirectoryRow is one point of the directory-sharding ablation.
type DirectoryRow struct {
	Label    string
	Shards   int
	Acquired uint64 // successful ownership acquisitions
	Requests uint64 // REQ attempts issued
	Nacks    uint64
	Timeouts uint64
	Elapsed  time.Duration
	Tps      float64 // acquisitions per second
	Speedup  float64 // vs the 1-shard row
}

// DirectoryResult is the sharded-directory ablation (§6.2): the same
// hot-directory workload — every node fighting for ownership of a pool of
// hot objects, so ownership REQs (not commits) dominate — swept across
// directory shard counts. With one shard all arbitration funnels through one
// three-node driver set (the paper's fixed directory); as shards grow,
// arbitration spreads across the cluster and REQ throughput should scale
// with cores. On a single-core host the sweep degenerates to a
// flat-not-degrading check; MaxProcs records the regime.
type DirectoryResult struct {
	MaxProcs int
	Nodes    int
	Objects  int
	Rows     []DirectoryRow
}

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

// Directory runs the directory-sharding ablation on a 6-node in-memory
// cluster (the paper's testbed size).
func Directory(s Scale) DirectoryResult {
	const nodes = 6
	objects := 8 * nodes
	dur := s.Duration
	if dur <= 0 {
		dur = 500 * time.Millisecond
	}
	configs := []struct {
		label  string
		shards int
	}{
		{"1 shard", 1},
		{"4 shards", 4},
		{"16 shards", 16},
		{"64 shards", 64},
	}
	res := DirectoryResult{MaxProcs: runtime.GOMAXPROCS(0), Nodes: nodes, Objects: objects}
	for _, cfg := range configs {
		opts := cluster.DefaultOptions(nodes)
		opts.Workers = s.Workers
		opts.View.DirShards = cfg.shards
		c := cluster.New(opts)
		c.SeedRange(1, objects, make([]byte, 64))

		before := sumOwnStats(c, nodes)

		// Acquire stormers: every node walks the hot-object pool with its
		// own stride, so each object's ownership keeps ping-ponging between
		// nodes and (almost) every acquisition issues a REQ.
		workers := s.Workers
		if workers <= 0 {
			workers = 2
		}
		ops := make([]bench.Op, nodes)
		for n := range ops {
			eng := c.Node(n).OwnershipEngine()
			at := make([]int, workers) // each worker's place in its walk
			for w := range at {
				at[w] = n + w*nodes
			}
			ops[n] = func(worker int, _ *rand.Rand) error {
				obj := wire.ObjectID(1 + at[worker]%objects)
				at[worker] += 1 + n // node-specific stride keeps acquirers colliding
				return eng.AcquireOwnership(obj)
			}
		}
		elapsed := closedLoop(loadgen.Config{Arrival: loadgen.ClosedLoop{}, Duration: dur}, workers, ops).Elapsed

		after := sumOwnStats(c, nodes)
		c.Close()

		row := DirectoryRow{
			Label:    cfg.label,
			Shards:   cfg.shards,
			Acquired: after.Succeeded - before.Succeeded,
			Requests: after.Requests - before.Requests,
			Nacks:    after.Nacks - before.Nacks,
			Timeouts: after.Timeouts - before.Timeouts,
			Elapsed:  elapsed,
		}
		row.Tps = float64(row.Acquired) / elapsed.Seconds()
		res.Rows = append(res.Rows, row)
	}
	// Speedup vs the 1-shard row.
	if base := res.Rows[0].Tps; base > 0 {
		for i := range res.Rows {
			res.Rows[i].Speedup = res.Rows[i].Tps / base
		}
	}
	return res
}

// Print renders the ablation.
func (r DirectoryResult) Print(w io.Writer) {
	printHeader(w, fmt.Sprintf(
		"Directory sharding: ownership-REQ throughput vs shard count (%d nodes, %d hot objects, GOMAXPROCS=%d)",
		r.Nodes, r.Objects, r.MaxProcs))
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-15s %8d acquired in %8s  %s acq/s  (reqs %d, nacks %d, timeouts %d)  vs 1-shard %.2fx\n",
			row.Label, row.Acquired, row.Elapsed.Round(time.Millisecond),
			fmtTps(row.Tps), row.Requests, row.Nacks, row.Timeouts, row.Speedup)
	}
	if r.MaxProcs == 1 {
		fmt.Fprintf(w, "  (single-core host: arbitration cannot parallelize; the sweep checks flat-not-degrading)\n")
	}
}
