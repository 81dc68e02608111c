// Package experiments reproduces every table and figure of the paper's
// evaluation (§8). Each experiment is a function from a Scale (how big to
// run) to a Table: a title, the paper's own figure for the same artefact,
// named columns, one row of cells per measured point, and notes. All lists
// them in order; cmd/zeus-bench prints them as text and the repository's
// BenchmarkFigures reports their headline cells.
//
// Absolute numbers differ from the paper — the substrate is an in-process
// simulated fabric, not a 40 Gbps DPDK testbed — but the comparisons (who
// wins, by what factor, where the crossovers fall) reproduce the paper's
// shapes, and each table's "paper:" line puts the paper's figure beside the
// measured one.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
	"zeus/internal/loadgen"
	"zeus/internal/netsim"
	"zeus/internal/transport"
)

// Table is what one experiment measured. A cell is a string, an int, a
// uint64, a float64 or a time.Duration.
type Table struct {
	Title string
	Paper string // what the paper reports
	Cols  []string
	Rows  [][]any
	Notes []string
}

// An Experiment is one artefact of the evaluation.
type Experiment struct {
	ID, Desc string
	Run      func(Scale) Table
}

// All is every experiment, in the order zeus-bench lists and runs them.
var All = []Experiment{
	{"tab2", "Table 2: benchmark summary", Table2},
	{"locality", "§8 locality analyses (Boston, Venmo, TPC-C)", Locality},
	{"fig7", "Handovers: all-local ideal vs Zeus", Fig7},
	{"fig8", "Smallbank vs % remote writes (Zeus vs OCC+2PC)", Fig8},
	{"fig9", "TATP vs % remote writes (Zeus vs OCC+2PC)", Fig9},
	{"fig10", "Voter: bulk object migration under load", Fig10},
	{"fig11", "Voter: votes concurrent with hot-object moves", Fig11},
	{"fig12", "CDF of ownership request latency", Fig12},
	{"fig13", "Packet gateway control plane (4 configurations)", Fig13},
	{"fig14", "SCTP throughput with/without replication", Fig14},
	{"fig15", "Nginx-style LB under scale-out/in", Fig15},
	{"ablation", "Pipelining / replication degree / loss ablations", Ablations},
	{"transport", "Transport frame batching + delayed acks vs the per-message floor", Transport},
	{"scaling", "Worker-pipeline scaling: local write tx with 1→8 workers", Scaling},
	{"directory", "Sharded ownership directory: REQ throughput vs shard count", Directory},
	{"readscale", "MVCC snapshot reads: RO throughput vs reader replicas (95/5 and 100/0)", ReadScale},
	{"slo", "Open-loop SLO matrix: omission-safe latency over app workloads (netsim + TCP)", SLOExp},
}

// Print renders the table as aligned text.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  %s\n", strings.Join(t.Cols, "\t"))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = fmtCell(v)
		}
		fmt.Fprintf(tw, "  %s\n", strings.Join(cells, "\t"))
	}
	tw.Flush()
	if t.Paper != "" {
		fmt.Fprintf(w, "  paper: %s\n", t.Paper)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// fmtCell renders one cell for Print.
func fmtCell(v any) string {
	switch v := v.(type) {
	case float64:
		switch a := math.Abs(v); {
		case a >= 100 || a == 0:
			return strconv.FormatFloat(v, 'f', 0, 64)
		case a >= 1:
			return strconv.FormatFloat(v, 'f', 2, 64)
		}
		return strconv.FormatFloat(v, 'g', 3, 64)
	case time.Duration:
		return v.Round(time.Microsecond).String()
	}
	return fmt.Sprint(v)
}

// Col returns the index of the named column; it panics on a name the table
// does not have.
func (t Table) Col(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	panic(fmt.Sprintf("experiments: %q has no column %q", t.Title, name))
}

// Num returns a numeric cell as a float64 (a Duration in nanoseconds); it
// panics on a cell that is not a number.
func (t Table) Num(row int, col string) float64 {
	switch v := t.Rows[row][t.Col(col)].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case uint64:
		return float64(v)
	case time.Duration:
		return float64(v)
	}
	panic(fmt.Sprintf("experiments: %q row %d column %q is not a number", t.Title, row, col))
}

// ratio is a/b, 0 when b is: a cell stays a finite number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// add appends one row of cells.
func (t *Table) add(cells ...any) { t.Rows = append(t.Rows, cells) }

// procsNote is the note of the experiments whose speedups depend on cores:
// the host's GOMAXPROCS, and on one core what the rows check instead.
func procsNote(singleCore string) []string {
	procs := runtime.GOMAXPROCS(0)
	if procs == 1 {
		return []string{"GOMAXPROCS=1 (single-core host: " + singleCore + ")"}
	}
	return []string{fmt.Sprintf("GOMAXPROCS=%d", procs)}
}

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

// newZeus builds a Zeus cluster of a replication degree over the perfect
// in-memory fabric (protocol dynamics experiments: migrations, latency CDFs,
// timelines).
func newZeus(nodes, degree, workers int) *cluster.Cluster {
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
