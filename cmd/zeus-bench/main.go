// Command zeus-bench regenerates the paper's evaluation artefacts (§8):
// every table and figure, plus the ablation studies and the repo's own
// regression experiments.
//
// Usage:
//
//	zeus-bench -experiment all
//	zeus-bench -experiment fig8 -full
//	zeus-bench -experiment slo -slo-out BENCH_SLO.json
//	zeus-bench -compare -slo-new /tmp/slo.json
//	zeus-bench -list
//
// Experiments: tab2, locality, fig7 … fig15, ablation, transport, scaling,
// directory, readscale, slo, all. The default scale finishes in seconds;
// -full runs the larger populations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"zeus/internal/experiments"
)

func main() {
	exp := flag.String("experiment", "all", "experiment id (tab2, locality, fig7..fig15, ablation, transport, scaling, directory, readscale, slo, all)")
	full := flag.Bool("full", false, "run the full-scale configuration (slower)")
	list := flag.Bool("list", false, "list available experiments")
	compare := flag.Bool("compare", false, "gate an open-loop SLO record (-slo-new) against the baseline (-slo-old)")
	sloOld := flag.String("slo-old", "BENCH_SLO.json", "baseline SLO record for -compare")
	sloNew := flag.String("slo-new", "SLO_AFTER.json", "current SLO record for -compare")
	sloOut := flag.String("slo-out", "", "with -experiment slo: write the matrix percentiles to this JSON record")
	flag.Parse()

	if *compare {
		if err := compareSLORecords(os.Stdout, *sloOld, *sloNew); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *list {
		fmt.Println("available experiments:")
		for _, e := range order {
			fmt.Printf("  %-9s %s\n", e.name, e.desc)
		}
		return
	}
	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}

	want := strings.ToLower(*exp)
	ran := 0
	failed := false
	for _, e := range order {
		if want != "all" && want != e.name {
			continue
		}
		if e.name == "slo" {
			r := experiments.SLOExp(scale)
			r.Print(os.Stdout)
			if *sloOut != "" {
				label := "slo " + scaleName(*full)
				if err := writeSLORecord(*sloOut, label, r); err != nil {
					fmt.Fprintln(os.Stderr, "zeus-bench:", err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", *sloOut)
			}
			if !r.Pass() {
				failed = true
			}
		} else {
			e.run(scale)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "zeus-bench: SLO matrix failed (see rows marked FAIL)")
		os.Exit(1)
	}
}

func scaleName(full bool) string {
	if full {
		return "full"
	}
	return "quick"
}

type entry struct {
	name string
	desc string
	run  func(experiments.Scale)
}

var order = []entry{
	{"tab2", "Table 2: benchmark summary", func(experiments.Scale) {
		experiments.Table2().Print(os.Stdout)
	}},
	{"locality", "§8 locality analyses (Boston, Venmo, TPC-C)", func(experiments.Scale) {
		experiments.Locality().Print(os.Stdout)
	}},
	{"fig7", "Handovers: all-local ideal vs Zeus", func(s experiments.Scale) {
		experiments.PrintFig7(os.Stdout, experiments.Fig7(s))
	}},
	{"fig8", "Smallbank vs % remote writes (Zeus vs OCC+2PC)", func(s experiments.Scale) {
		experiments.PrintSweep(os.Stdout, "Figure 8: Smallbank while varying remote write transactions", experiments.Fig8(s))
	}},
	{"fig9", "TATP vs % remote writes (Zeus vs OCC+2PC)", func(s experiments.Scale) {
		experiments.PrintSweep(os.Stdout, "Figure 9: TATP while varying remote write transactions", experiments.Fig9(s))
	}},
	{"fig10", "Voter: bulk object migration under load", func(s experiments.Scale) {
		experiments.Fig10(s).Print(os.Stdout)
	}},
	{"fig11", "Voter: votes concurrent with hot-object moves", func(s experiments.Scale) {
		experiments.Fig11(s).Print(os.Stdout)
	}},
	{"fig12", "CDF of ownership request latency", func(s experiments.Scale) {
		experiments.Fig12(s).Print(os.Stdout)
	}},
	{"fig13", "Packet gateway control plane (4 configurations)", func(s experiments.Scale) {
		experiments.Fig13(s).Print(os.Stdout)
	}},
	{"fig14", "SCTP throughput with/without replication", func(s experiments.Scale) {
		experiments.Fig14(s).Print(os.Stdout)
	}},
	{"fig15", "Nginx-style LB under scale-out/in", func(s experiments.Scale) {
		experiments.Fig15(s).Print(os.Stdout)
	}},
	{"ablation", "Pipelining / replication degree / loss ablations", func(s experiments.Scale) {
		experiments.Ablations(s).Print(os.Stdout)
	}},
	{"transport", "Transport frame batching + delayed acks vs the per-message floor", func(s experiments.Scale) {
		experiments.Transport(s).Print(os.Stdout)
	}},
	{"scaling", "Worker-pipeline scaling: local write tx with 1→8 workers", func(s experiments.Scale) {
		experiments.Scaling(s).Print(os.Stdout)
	}},
	{"directory", "Sharded ownership directory: REQ throughput vs shard count", func(s experiments.Scale) {
		experiments.Directory(s).Print(os.Stdout)
	}},
	{"readscale", "MVCC snapshot reads: RO throughput vs reader replicas (95/5 and 100/0)", func(s experiments.Scale) {
		experiments.ReadScale(s).Print(os.Stdout)
	}},
	{"slo", "Open-loop SLO matrix: omission-safe latency over app workloads (netsim + TCP)", func(s experiments.Scale) {
		// Handled specially in main so -slo-out and the pass/fail exit
		// code apply; this entry exists for -list and ordering.
		experiments.SLOExp(s).Print(os.Stdout)
	}},
}
