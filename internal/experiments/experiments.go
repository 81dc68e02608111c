// Package experiments reproduces every table and figure of the paper's
// evaluation (§8). Each experiment is a function from a Scale (how big to
// run) to a printable result; cmd/zeus-bench and the repository's root
// benchmarks are thin wrappers around these.
//
// Absolute numbers differ from the paper — the substrate is an in-process
// simulated fabric, not a 40 Gbps DPDK testbed — but the comparisons (who
// wins, by what factor, where the crossovers fall) reproduce the paper's
// shapes. Each printer puts the paper's figure beside the measured one (its
// "paper: …" notes in `zeus-bench -experiment <name>` output).
package experiments

import (
	"fmt"
	"io"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
	"zeus/internal/loadgen"
	"zeus/internal/netsim"
	"zeus/internal/transport"
)

// Scale sizes an experiment run.
type Scale struct {
	// Entities per node for the OLTP workloads.
	AccountsPerNode    int
	SubscribersPerNode int
	VotersPerNode      int
	UsersPerNode       int
	Sessions           int
	// Load shape.
	Workers      int
	OpsPerWorker int
	// Timeline experiments.
	Duration time.Duration
	Interval time.Duration
	// SCTP transfer size (packets).
	Packets int
}

// Quick is the CI/benchmark scale (sub-second figures). Workers is kept low
// so the figure shapes survive CPU-oversubscribed hosts; raise it (or use
// Full) on many-core machines.
var Quick = Scale{
	AccountsPerNode:    2000,
	SubscribersPerNode: 2000,
	VotersPerNode:      2000,
	UsersPerNode:       1000,
	Sessions:           500,
	Workers:            2,
	OpsPerWorker:       400,
	Duration:           600 * time.Millisecond,
	Interval:           100 * time.Millisecond,
	Packets:            2000,
}

// Full is the CLI scale (seconds per figure, larger populations).
var Full = Scale{
	AccountsPerNode:    50000,
	SubscribersPerNode: 50000,
	VotersPerNode:      50000,
	UsersPerNode:       20000,
	Sessions:           5000,
	Workers:            8,
	OpsPerWorker:       3000,
	Duration:           6 * time.Second,
	Interval:           500 * time.Millisecond,
	Packets:            50000,
}

// newZeus builds a Zeus cluster over the perfect in-memory fabric (protocol
// dynamics experiments: migrations, latency CDFs, timelines).
func newZeus(nodes, workers int) *cluster.Cluster { return newZeusDegree(nodes, 3, workers) }

// newZeusDegree is newZeus at another replication degree.
func newZeusDegree(nodes, degree, workers int) *cluster.Cluster {
	opts := cluster.DefaultOptions(nodes)
	opts.Degree = degree
	opts.Workers = workers
	return cluster.New(opts)
}

// simNetConfig is the latency model for the throughput comparisons. It is a
// "slow-motion" fabric: 2–4 ms one-way latency (vs the paper testbed's tens
// of µs), chosen so that host timer granularity cannot distort the relative
// costs. Round trips dominate exactly the operations the paper says they
// dominate — remote accesses and blocking distributed commits — while Zeus'
// local pipelined transactions pay none, so the Figures 8/9/13 comparisons
// keep their shape with absolute numbers scaled down uniformly.
func simNetConfig() netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.MinLatency = 2 * time.Millisecond
	cfg.MaxLatency = 4 * time.Millisecond
	return cfg
}

// newZeusSim builds a Zeus cluster over the simulated fabric.
func newZeusSim(nodes, workers int) *cluster.Cluster {
	opts := cluster.DefaultOptions(nodes)
	opts.Workers = workers
	opts.Fabric = cluster.FabricSim
	opts.Net = simNetConfig()
	return cluster.New(opts)
}

// closedLoop is how every figure loads a system: the paper's worker threads,
// workers of them per node, each issuing its next request when its last one
// returned. ops holds one op per node, in node order, and loadgen gets one
// driver per node, so the result's per-driver columns are per node. cfg says
// how long: loadgen.ClosedLoop{Ops: n}, or a Duration (and an Interval to
// sample at).
func closedLoop(cfg loadgen.Config, workers int, ops []bench.Op) loadgen.Result {
	cfg.Drivers, cfg.WorkersPerDriver = len(ops), workers
	return loadgen.Run(cfg, func(node int) bench.Op { return ops[node] })
}

// countedRun is closedLoop for the throughput figures: OpsPerWorker requests
// per worker against every db, after a quarter as many unmeasured ones that
// absorb allocator and scheduler warm-up, so that configurations run back to
// back compare fairly.
func countedRun(s Scale, seed int64, dbs []dbapi.DB, makeOp func(node int, db dbapi.DB) bench.Op) loadgen.Result {
	ops := opsOn(dbs, makeOp)
	closedLoop(loadgen.Config{Arrival: loadgen.ClosedLoop{Ops: s.OpsPerWorker / 4}, Seed: seed + 7777}, s.Workers, ops)
	return closedLoop(loadgen.Config{Arrival: loadgen.ClosedLoop{Ops: s.OpsPerWorker}, Seed: seed}, s.Workers, ops)
}

// timedRun is closedLoop for the timelines: every db loaded for the scale's
// Duration, completions per node cut every Interval.
func timedRun(s Scale, seed int64, dbs []dbapi.DB, makeOp func(node int, db dbapi.DB) bench.Op) loadgen.Result {
	return closedLoop(loadgen.Config{Arrival: loadgen.ClosedLoop{}, Duration: s.Duration, Interval: s.Interval, Seed: seed}, s.Workers, opsOn(dbs, makeOp))
}

func opsOn(dbs []dbapi.DB, makeOp func(node int, db dbapi.DB) bench.Op) []bench.Op {
	ops := make([]bench.Op, len(dbs))
	for node, db := range dbs {
		ops[node] = makeOp(node, db)
	}
	return ops
}

// perNode is a run's throughput divided by its node count.
func perNode(r loadgen.Result) float64 { return r.Throughput() / float64(r.Drivers) }

// newBaselineSim builds the distributed-commit baseline on the same simulated
// fabric newZeusSim gives Zeus.
func newBaselineSim(nodes, degree int) *bench.BaselineDeployment {
	return bench.NewBaselineDeployment(nodes, degree, transport.NewSimFabric(simNetConfig()))
}

// fmtTps renders a throughput in human units.
func fmtTps(tps float64) string {
	switch {
	case tps >= 1e6:
		return fmt.Sprintf("%.2f Mtps", tps/1e6)
	case tps >= 1e3:
		return fmt.Sprintf("%.1f Ktps", tps/1e3)
	default:
		return fmt.Sprintf("%.0f tps", tps)
	}
}

// Table rendering helper.
func printHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}
