package experiments

import (
	"zeus/internal/bench"
	"zeus/internal/mobility"
)

// Table2 returns the paper's Table 2, the characteristics of the evaluated
// benchmarks. It runs nothing.
func Table2(Scale) Table {
	t := Table{
		Title: "Table 2: summary of evaluated benchmarks",
		Cols:  []string{"benchmark", "characteristic", "tables", "columns", "tx types", "read txs %"},
	}
	for _, b := range bench.Table2() {
		t.add(b.Name, b.Characteristic, b.Tables, b.Columns, b.TxTypes, b.ReadTxPercent)
	}
	return t
}

// Locality is the §8 "Locality in workloads" analysis: the share of remote
// transactions in Boston cellular handovers, Venmo payments and TPC-C (the
// closed form by the spec's mix, and calibrated to the paper).
func Locality(Scale) Table {
	const trips = 20000
	const payments = 300000
	m3 := mobility.New(mobility.DefaultConfig(3))
	m6 := mobility.New(mobility.DefaultConfig(6))
	v3 := bench.NewVenmoGraph(bench.DefaultVenmoConfig(3))
	v6 := bench.NewVenmoGraph(bench.DefaultVenmoConfig(6))
	p := bench.DefaultTPCCParams(6)
	t := Table{
		Title: "Locality in workloads (§8)",
		Cols:  []string{"analysis", "nodes", "remote %", "paper %"},
	}
	t.add("Boston handovers", 3, 100*m3.Analyze(trips).RemoteFraction(), "—")
	t.add("Boston handovers", 6, 100*m6.Analyze(trips).RemoteFraction(), "up to 6.2")
	t.add("Boston txs @5% handovers", 6, 100*m6.RemoteTransactionFraction(0.05, trips), "0.31")
	t.add("Venmo payments", 3, 100*v3.Analyze(payments).RemoteFraction(), "0.7")
	t.add("Venmo payments", 6, 100*v6.Analyze(payments).RemoteFraction(), "1.2")
	t.add("TPC-C spec formula", 6, 100*p.RemoteFraction(), "—")
	t.add("TPC-C paper-calibrated", 6, 100*p.PaperCalibrated(), "2.45")
	return t
}
