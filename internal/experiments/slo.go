package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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

// SLOExp runs the open-loop SLO matrix: the three §8.5 application ports
// (epcgw, httplb, sctp) and the handover pattern over the simulated fabric
// at two arrival rates, a node-count + Poisson point, and the epcgw workload
// again over real loopback TCP sockets. Quick scale keeps each run at
// Scale.Duration; -full stretches the schedules accordingly.
//
// A row is one point of the workload × fabric × node-count × arrival-rate
// matrix, named by its first cell (workload/fabric/n<nodes>/r<rate>/<arrival>,
// the key of BENCH_SLO.json), with coordinated-omission-safe latency measured
// from intended send time. Its ack and applied p99s attribute the commit
// phases from the per-transaction trace spans (begin→quorum-ack and
// begin→applied), so a tail excursion decomposes into pipeline versus
// above-engine queueing. A row passes when it met DefaultSLO with zero
// watchdog incidents; a failed row's notes carry its violations, the
// closed-loop service p99 (the gap to p99 is the queueing a closed-loop
// harness hides), the health errata and the slowest sampled traces.
func SLOExp(s Scale) Table {
	t := Table{
		Title: "SLO: open-loop latency over application workloads",
		Cols: append(append([]string{"point", "offered", "done", "err", "tx/s"}, latCols...),
			"ack p99", "applied p99", "verdict"),
		Notes: procsNote("driver groups time-share one CPU — the matrix checks omission-safe measurement and SLO gating, not parallel speedup"),
	}
	t.Notes[0] += fmt.Sprintf(", %d drivers on the 3-node rows", sloDrivers(3))
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
		sloPoint(&t, s, p.wl(p.nodes), p.fabric, p.nodes, p.rate, p.arrival)
	}
	return t
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
// into t's row (health cross-check, phase attribution, SLO verdict).
func sloPoint(t *Table, s Scale, wl loadgen.Workload, fabric cluster.FabricKind, nodes int, rate float64, arrival loadgen.Arrival) {
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

	point := fmt.Sprintf("%s/%s/n%d/r%g/%s", wl.Name, fabricName(fabric), nodes, rate, res.Arrival)
	// A healthy run has zero watchdog incidents (the multiproc smoke's
	// /metrics assertion, in-process); incidents fail the row even when the
	// latency objectives were met, and the incident list travels with it.
	violations := DefaultSLO.Check(res)
	if !health.Healthy() {
		violations = append(violations,
			fmt.Sprintf("%d watchdog incidents on a healthy-run assertion", health.Incidents))
	}
	verdict := "PASS"
	if len(violations) > 0 {
		verdict = "FAIL"
		var b strings.Builder
		for _, v := range violations {
			fmt.Fprintf(&b, "violation: %s\n", v)
		}
		fmt.Fprintf(&b, "closed-loop service_p99=%v — the gap to p99 is queueing the open loop charged\n",
			time.Duration(res.Service.Quantile(0.99)).Round(time.Microsecond))
		health.WriteText(&b)
		for _, tr := range loadgen.SlowTraces(4, regs...) {
			fmt.Fprintf(&b, "trace reqid=%d total=%v", tr.ReqID, tr.Total)
			for _, e := range tr.Events {
				fmt.Fprintf(&b, " %s=+%v", e.Label, e.At)
			}
			b.WriteByte('\n')
		}
		for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
			t.Notes = append(t.Notes, point+" "+strings.TrimSpace(line))
		}
	}
	t.add(append(append([]any{point, res.Offered, res.Completed, res.Errors, res.Throughput()}, latCells(res.Latency)...),
		time.Duration(ackPhase.Quantile(0.99)), time.Duration(appliedPhase.Quantile(0.99)), verdict)...)
}
