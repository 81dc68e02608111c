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
	"zeus/internal/obs"
)

// DefaultSLO is the in-run latency objective for every matrix point: wide
// enough that a healthy run on a loaded 1-vCPU CI host passes with margin
// (quick-scale p99s sit well under 10 ms), tight enough that a wedged
// pipeline — the multi-second stalls the watchdog files incidents for —
// fails the row outright. Regression detection at finer grain is the
// BENCH_SLO.json compare gate's job, not this absolute band's.
var DefaultSLO = loadgen.SLO{
	P50:          100 * time.Millisecond,
	P99:          250 * time.Millisecond,
	P999:         500 * time.Millisecond,
	MaxErrorRate: 0.01,
}

// SLORow is one point of the workload × fabric × node-count × arrival-rate
// matrix: an open-loop run over a real application workload with
// coordinated-omission-safe latency measured from intended send time.
type SLORow struct {
	Workload string
	Fabric   string // mem | netsim | tcp
	Nodes    int
	Rate     float64 // aggregate offered arrivals/second
	Arrival  string  // const | poisson

	Offered    int
	Completed  uint64
	Errors     uint64
	Throughput float64 // completed/s over the whole run

	// Intended-send-time latency (the omission-safe histogram).
	P50, P99, P999, Max time.Duration
	// ServiceP99 is the closed-loop view of the same run (actual-send
	// clock): the gap to P99 is the queueing a closed-loop harness hides.
	ServiceP99 time.Duration
	// Phase attribution from the per-transaction trace spans: commit
	// begin→quorum-ack and begin→applied p99s, so a tail excursion
	// decomposes into pipeline vs above-engine queueing.
	AckP99, AppliedP99 time.Duration

	Health     loadgen.Health
	Violations []string
	Pass       bool
	// SlowTraces holds the slowest sampled per-phase traces, kept only for
	// failed rows (the diagnosis attached to the SLO miss).
	SlowTraces []obs.TraceRecord
}

// Key names the row in SLO records (BENCH_SLO.json).
func (r SLORow) Key() string {
	return fmt.Sprintf("%s/%s/n%d/r%g/%s", r.Workload, r.Fabric, r.Nodes, r.Rate, r.Arrival)
}

// SLOResult is the full matrix run.
type SLOResult struct {
	MaxProcs int
	Drivers  int // drivers used on the 3-node rows (GOMAXPROCS-partitioned)
	Rows     []SLORow
}

// Pass reports whether every row met its SLO with zero watchdog incidents.
func (r SLOResult) Pass() bool {
	for _, row := range r.Rows {
		if !row.Pass {
			return false
		}
	}
	return true
}

// SLOExp runs the open-loop SLO matrix: the three §8.5 application ports
// (epcgw, httplb, sctp) and the handover pattern over the simulated fabric
// at two arrival rates, a node-count + Poisson point, and the epcgw workload
// again over real loopback TCP sockets. Quick scale keeps each run at
// Scale.Duration; -full stretches the schedules accordingly.
func SLOExp(s Scale) SLOResult {
	res := SLOResult{MaxProcs: runtime.GOMAXPROCS(0), Drivers: sloDrivers(3)}
	lowRate, highRate := 1000.0, 4000.0
	type point struct {
		wl      func(nodes int) loadgen.Workload
		fabric  cluster.FabricKind
		nodes   int
		rate    float64
		arrival loadgen.Arrival
	}
	sctp := func(nodes int) loadgen.Workload {
		return loadgen.SCTP(nodes, 4*s.Workers*sloDrivers(nodes)/nodes)
	}
	points := []point{
		{loadgen.EPCGW, cluster.FabricSim, 3, lowRate, loadgen.ConstantRate{}},
		{loadgen.EPCGW, cluster.FabricSim, 3, highRate, loadgen.ConstantRate{}},
		{loadgen.HTTPLB, cluster.FabricSim, 3, lowRate, loadgen.ConstantRate{}},
		{loadgen.HTTPLB, cluster.FabricSim, 3, highRate, loadgen.ConstantRate{}},
		{sctp, cluster.FabricSim, 3, lowRate, loadgen.ConstantRate{}},
		{sctp, cluster.FabricSim, 3, highRate, loadgen.ConstantRate{}},
		{loadgen.Handover, cluster.FabricSim, 3, lowRate, loadgen.ConstantRate{}},
		{loadgen.Handover, cluster.FabricSim, 3, highRate, loadgen.ConstantRate{}},
		// Node-count axis + stochastic arrivals.
		{loadgen.EPCGW, cluster.FabricSim, 5, highRate, loadgen.Poisson{}},
		// Real loopback TCP sockets under the same harness.
		{loadgen.EPCGW, cluster.FabricTCP, 3, lowRate, loadgen.ConstantRate{}},
		{loadgen.EPCGW, cluster.FabricTCP, 3, highRate, loadgen.ConstantRate{}},
	}
	for _, p := range points {
		res.Rows = append(res.Rows, sloPoint(s, p.wl(p.nodes), p.fabric, p.nodes, p.rate, p.arrival))
	}
	return res
}

// sloDrivers partitions the schedule across GOMAXPROCS, rounded up to a
// multiple of the node count so every node is driven — the multi-core runner
// mode (one driver group per core on big hosts, one per node at minimum).
func sloDrivers(nodes int) int {
	d := runtime.GOMAXPROCS(0)
	if d < nodes {
		return nodes
	}
	return (d + nodes - 1) / nodes * nodes
}

func fabricName(k cluster.FabricKind) string {
	switch k {
	case cluster.FabricSim:
		return "netsim"
	case cluster.FabricTCP:
		return "tcp"
	}
	return "mem"
}

// sloPoint runs one matrix point end to end: build the cluster, seed the
// workload, run the open-loop schedule, drain, and fold the obs registries
// into the row (health cross-check, phase attribution, SLO verdict).
func sloPoint(s Scale, wl loadgen.Workload, fabric cluster.FabricKind, nodes int, rate float64, arrival loadgen.Arrival) SLORow {
	// A worker for each lane's workers: a worker runs one transaction at a time.
	drivers := sloDrivers(nodes)
	opts := cluster.DefaultOptions(nodes)
	opts.Workers = s.Workers * drivers / nodes
	opts.Fabric = fabric
	if fabric == cluster.FabricSim {
		opts.Net = simNetConfig()
	}
	opts.Observability = true
	opts.TraceSample = 16
	c := cluster.New(opts)
	defer c.Close()
	wl.Seed(bench.ZeusSeeder(c))

	res := loadgen.Run(loadgen.Config{
		Rate:             rate,
		Arrival:          arrival,
		Duration:         s.Duration,
		Drivers:          drivers,
		WorkersPerDriver: s.Workers,
		Seed:             42,
	}, func(driver int) bench.Op {
		node := driver % nodes
		lane := driver / nodes
		inner := wl.MakeOp(node, c.Node(node).DB())
		return func(worker int, rng *rand.Rand) error {
			// Lanes offset their worker ids so co-located driver groups use
			// distinct workers (and distinct per-worker workload state).
			return inner(lane*s.Workers+worker, rng)
		}
	})
	c.WaitIdle(10 * time.Second)

	regs := make([]*obs.Registry, 0, nodes+1)
	for i := 0; i < nodes; i++ {
		regs = append(regs, c.Obs(i))
	}
	regs = append(regs, c.ViewObs())
	health := loadgen.CollectHealth(regs...)
	phases := loadgen.Phases(regs...)
	ackPhase, appliedPhase := phases["cmt_ack_ns"], phases["cmt_applied_ns"]

	row := SLORow{
		Workload:   wl.Name,
		Fabric:     fabricName(fabric),
		Nodes:      nodes,
		Rate:       rate,
		Arrival:    res.Arrival,
		Offered:    res.Offered,
		Completed:  res.Completed,
		Errors:     res.Errors,
		Throughput: res.Throughput(),
		P50:        time.Duration(res.Latency.Quantile(0.50)),
		P99:        time.Duration(res.Latency.Quantile(0.99)),
		P999:       time.Duration(res.Latency.Quantile(0.999)),
		Max:        time.Duration(res.Latency.Max()),
		ServiceP99: time.Duration(res.Service.Quantile(0.99)),
		AckP99:     time.Duration(ackPhase.Quantile(0.99)),
		AppliedP99: time.Duration(appliedPhase.Quantile(0.99)),
		Health:     health,
		Violations: DefaultSLO.Check(res),
	}
	// A healthy run has zero watchdog incidents (the multiproc smoke's
	// /metrics assertion, in-process); incidents fail the row even when the
	// latency objectives were met, and the incident list travels with it.
	if !health.Healthy() {
		row.Violations = append(row.Violations,
			fmt.Sprintf("%d watchdog incidents on a healthy-run assertion", health.Incidents))
	}
	row.Pass = len(row.Violations) == 0
	if !row.Pass {
		row.SlowTraces = loadgen.SlowTraces(4, regs...)
	}
	return row
}

// Print renders the matrix with one pass/fail line per row; failed rows get
// their violations, the health errata (incident list, retransmits, NACK
// reasons) and the slowest sampled traces.
func (r SLOResult) Print(w io.Writer) {
	printHeader(w, fmt.Sprintf(
		"SLO: open-loop latency over application workloads (GOMAXPROCS=%d, drivers=%d)", r.MaxProcs, r.Drivers))
	for _, row := range r.Rows {
		verdict := "PASS"
		if !row.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  %-8s %-6s n%d %6.0f/s %-7s offered=%-6d done=%-6d err=%-3d %s  %s ack_p99=%v applied_p99=%v  [%s]\n",
			row.Workload, row.Fabric, row.Nodes, row.Rate, row.Arrival,
			row.Offered, row.Completed, row.Errors, fmtTps(row.Throughput),
			fmtLat(row), row.AckP99.Round(time.Microsecond), row.AppliedP99.Round(time.Microsecond), verdict)
		if !row.Pass {
			for _, v := range row.Violations {
				fmt.Fprintf(w, "    violation: %s\n", v)
			}
			fmt.Fprintf(w, "    closed-loop service_p99=%v — the gap to p99 is queueing the open loop charged\n",
				row.ServiceP99.Round(time.Microsecond))
			row.Health.WriteText(w)
			for _, tr := range row.SlowTraces {
				fmt.Fprintf(w, "    trace reqid=%d total=%v", tr.ReqID, tr.Total)
				for _, e := range tr.Events {
					fmt.Fprintf(w, " %s=+%v", e.Label, e.At)
				}
				fmt.Fprintln(w)
			}
		}
	}
	if r.MaxProcs == 1 {
		fmt.Fprintf(w, "  (single-core host: driver groups time-share one CPU — the matrix checks omission-safe measurement and SLO gating, not parallel speedup)\n")
	}
}

func fmtLat(row SLORow) string {
	return fmt.Sprintf("p50=%v p99=%v p999=%v max=%v",
		row.P50.Round(time.Microsecond), row.P99.Round(time.Microsecond),
		row.P999.Round(time.Microsecond), row.Max.Round(time.Microsecond))
}
