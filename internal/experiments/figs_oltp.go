package experiments

import "zeus/internal/bench"

// Fig7 runs the Handovers benchmark on 3 and 6 nodes at 2.5 % and 5 %
// handover ratios, against the all-local ideal.
func Fig7(s Scale) Table {
	// Discard one run to absorb process warm-up (see sweep).
	warm := s
	warm.OpsPerWorker = s.OpsPerWorker / 2
	_ = runHandovers(warm, 3, 0.025, false)
	t := Table{
		Title: "Figure 7: Handovers — all-local (ideal) vs Zeus",
		Paper: "Zeus within 4–9 % of the ideal",
		Cols:  []string{"nodes", "handovers %", "ideal tx/s", "zeus tx/s", "gap %"},
		Notes: []string{"not reproduced: at quick scale the gap spanned −21 % to 88 % over six runs " +
			"(2-vCPU host), the ideal and zeus columns moving 2–4x run to run, so the rows state no shape"},
	}
	for _, nodes := range []int{3, 6} {
		for _, share := range []float64{0.025, 0.05} {
			ideal := runHandovers(s, nodes, share, true)
			zeus := runHandovers(s, nodes, share, false)
			t.add(nodes, share*100, ideal, zeus, 100*ratio(ideal-zeus, ideal))
		}
	}
	return t
}

// runHandovers uses the in-memory fabric: Figure 7 compares Zeus against its
// own all-local ideal, so the signal is the fraction of work spent on
// ownership migrations rather than absolute network cost.
func runHandovers(s Scale, nodes int, ratio float64, ideal bool) float64 {
	c := newZeus(nodes, 3, s.Workers)
	defer c.Close()
	cfg := bench.DefaultHandoverConfig(nodes)
	cfg.UsersPerNode = s.UsersPerNode
	cfg.HandoverRatio = ratio
	cfg.Ideal = ideal
	h := bench.NewHandovers(cfg)
	h.Seed(bench.ZeusSeeder(c))
	return countedRun(s, 11, bench.ZeusDBs(c, nodes), h.MakeOp).Throughput()
}

// Fig8 sweeps Smallbank over remote-write fractions (paper: 0–20 %).
func Fig8(s Scale) Table {
	return sweep(s, "Figure 8: Smallbank while varying remote write transactions", []float64{0, 0.05, 0.10, 0.20}, runSmallbank)
}

// Fig9 sweeps TATP over remote-write fractions (paper: 0–40 %).
func Fig9(s Scale) Table {
	return sweep(s, "Figure 9: TATP while varying remote write transactions", []float64{0, 0.05, 0.10, 0.20, 0.40}, runTATP)
}

// sweep is Figures 8/9: throughput per node of Zeus on 3 and 6 nodes, and of
// OCC+2PC distributed commit (FaSST/FaRM-style) on 3, while varying the
// fraction of remote write transactions.
func sweep(s Scale, title string, fracs []float64, run func(s Scale, nodes int, frac float64, baseline bool) float64) Table {
	// Discard one full run first: it absorbs process-level warm-up
	// (allocator growth, GC steady-state) that would otherwise skew the
	// first sweep points.
	warm := s
	warm.OpsPerWorker = s.OpsPerWorker / 2
	_ = run(warm, 3, fracs[0], false)
	_ = run(warm, 3, fracs[0], true)
	t := Table{
		Title: title,
		Paper: "Zeus well ahead of OCC+2PC while transactions are local, decaying as remote writes grow",
		Cols:  []string{"remote %", "zeus-3 tx/s/node", "zeus-6 tx/s/node", "occ2pc tx/s/node"},
	}
	for _, f := range fracs {
		t.add(f*100, run(s, 3, f, false), run(s, 6, f, false), run(s, 3, f, true))
	}
	return t
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
