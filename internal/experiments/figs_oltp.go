package experiments

import (
	"fmt"
	"io"

	"zeus/internal/bench"
)

// Fig7Row is one bar group of Figure 7: Handovers, all-local ideal vs Zeus.
type Fig7Row struct {
	Nodes       int
	HandoverPct float64
	IdealTps    float64
	ZeusTps     float64
	GapPct      float64 // how far Zeus is from ideal (paper: 4–9 %)
}

// Fig7 runs the Handovers benchmark on 3 and 6 nodes at 2.5 % and 5 %
// handover ratios, against the all-local ideal.
func Fig7(s Scale) []Fig7Row {
	// Discard one run to absorb process warm-up (see sweep).
	warm := s
	warm.OpsPerWorker = s.OpsPerWorker / 2
	_ = runHandovers(warm, 3, 0.025, false)
	var rows []Fig7Row
	for _, nodes := range []int{3, 6} {
		for _, ratio := range []float64{0.025, 0.05} {
			ideal := runHandovers(s, nodes, ratio, true)
			zeus := runHandovers(s, nodes, ratio, false)
			gap := 0.0
			if ideal > 0 {
				gap = 100 * (ideal - zeus) / ideal
			}
			rows = append(rows, Fig7Row{
				Nodes: nodes, HandoverPct: ratio * 100,
				IdealTps: ideal, ZeusTps: zeus, GapPct: gap,
			})
		}
	}
	return rows
}

// runHandovers uses the in-memory fabric: Figure 7 compares Zeus against its
// own all-local ideal, so the signal is the fraction of work spent on
// ownership migrations rather than absolute network cost.
func runHandovers(s Scale, nodes int, ratio float64, ideal bool) float64 {
	c := newZeus(nodes, s.Workers)
	defer c.Close()
	cfg := bench.DefaultHandoverConfig(nodes)
	cfg.UsersPerNode = s.UsersPerNode
	cfg.HandoverRatio = ratio
	cfg.Ideal = ideal
	h := bench.NewHandovers(cfg)
	h.Seed(bench.ZeusSeeder(c))
	return countedRun(s, 11, bench.ZeusDBs(c, nodes), h.MakeOp).Throughput()
}

// PrintFig7 renders the figure.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	printHeader(w, "Figure 7: Handovers — all-local (ideal) vs Zeus")
	for _, r := range rows {
		fmt.Fprintf(w, "  %d nodes, %.1f%% handovers: ideal %-12s zeus %-12s (gap %.1f%%, paper: 4–9%%)\n",
			r.Nodes, r.HandoverPct, fmtTps(r.IdealTps), fmtTps(r.ZeusTps), r.GapPct)
	}
}

// SweepRow is one x-point of Figures 8/9: throughput per node while varying
// the fraction of remote write transactions.
type SweepRow struct {
	RemotePct       float64
	Zeus3PerNode    float64
	Zeus6PerNode    float64
	BaselinePerNode float64 // OCC+2PC distributed commit (FaSST/FaRM-style)
}

// Fig8 sweeps Smallbank over remote-write fractions (paper: 0–20 %).
func Fig8(s Scale) []SweepRow {
	return sweep(s, []float64{0, 0.05, 0.10, 0.20}, runSmallbank)
}

// Fig9 sweeps TATP over remote-write fractions (paper: 0–40 %).
func Fig9(s Scale) []SweepRow {
	return sweep(s, []float64{0, 0.05, 0.10, 0.20, 0.40}, runTATP)
}

func sweep(s Scale, fracs []float64, run func(s Scale, nodes int, frac float64, baseline bool) float64) []SweepRow {
	// Discard one full run first: it absorbs process-level warm-up
	// (allocator growth, GC steady-state) that would otherwise skew the
	// first sweep points.
	warm := s
	warm.OpsPerWorker = s.OpsPerWorker / 2
	_ = run(warm, 3, fracs[0], false)
	_ = run(warm, 3, fracs[0], true)
	var rows []SweepRow
	for _, f := range fracs {
		rows = append(rows, SweepRow{
			RemotePct:       f * 100,
			Zeus3PerNode:    run(s, 3, f, false),
			Zeus6PerNode:    run(s, 6, f, false),
			BaselinePerNode: run(s, 3, f, true),
		})
	}
	return rows
}

func runSmallbank(s Scale, nodes int, frac float64, baselineSys bool) float64 {
	cfg := bench.DefaultSmallbankConfig(nodes)
	cfg.AccountsPerNode = s.AccountsPerNode
	cfg.RemoteWriteFrac = frac
	sb := bench.NewSmallbank(cfg)
	if baselineSys {
		d := newBaselineSim(nodes, 3)
		defer d.Close()
		sb.Seed(d.Seeder())
		return perNode(countedRun(s, 21, d.DBs(), sb.MakeOp))
	}
	c := newZeusSim(nodes, s.Workers)
	defer c.Close()
	sb.Seed(bench.ZeusSeeder(c))
	return perNode(countedRun(s, 21, bench.ZeusDBs(c, nodes), sb.MakeOp))
}

func runTATP(s Scale, nodes int, frac float64, baselineSys bool) float64 {
	cfg := bench.DefaultTATPConfig(nodes)
	cfg.SubscribersPerNode = s.SubscribersPerNode
	cfg.RemoteWriteFrac = frac
	tp := bench.NewTATP(cfg)
	if baselineSys {
		d := newBaselineSim(nodes, 3)
		defer d.Close()
		tp.Seed(d.Seeder())
		return perNode(countedRun(s, 22, d.DBs(), tp.MakeOp))
	}
	c := newZeusSim(nodes, s.Workers)
	defer c.Close()
	tp.Seed(bench.ZeusSeeder(c))
	return perNode(countedRun(s, 22, bench.ZeusDBs(c, nodes), tp.MakeOp))
}

// PrintSweep renders Figures 8/9.
func PrintSweep(w io.Writer, title string, rows []SweepRow) {
	printHeader(w, title)
	fmt.Fprintf(w, "  %-10s %-14s %-14s %-14s\n", "remote-%", "zeus-3/node", "zeus-6/node", "occ2pc/node")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10.0f %-14s %-14s %-14s\n",
			r.RemotePct, fmtTps(r.Zeus3PerNode), fmtTps(r.Zeus6PerNode), fmtTps(r.BaselinePerNode))
	}
}
