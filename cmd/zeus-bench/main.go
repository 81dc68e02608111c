// Command zeus-bench regenerates the paper's evaluation artefacts (§8):
// every table and figure, plus the ablation studies and the repo's own
// regression experiments, each printed as one table.
//
// Usage:
//
//	zeus-bench -experiment all
//	zeus-bench -experiment fig8 -full
//	zeus-bench -experiment slo -slo-out BENCH_SLO.json
//	zeus-bench -compare -slo-new /tmp/slo.json
//	zeus-bench -list
//
// The experiments are experiments.All (-list names them). The default scale
// finishes in seconds; -full runs the larger populations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"zeus/internal/experiments"
)

func main() {
	exp := flag.String("experiment", "all", "experiment id (see -list), or all")
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
		for _, e := range experiments.All {
			fmt.Printf("  %-9s %s\n", e.ID, e.Desc)
		}
		return
	}
	scale, scaleName := experiments.Quick, "quick"
	if *full {
		scale, scaleName = experiments.Full, "full"
	}

	want := strings.ToLower(*exp)
	ran := 0
	failed := false
	for _, e := range experiments.All {
		if want != "all" && want != e.ID {
			continue
		}
		t := e.Run(scale)
		t.Print(os.Stdout)
		if e.ID == "slo" {
			// The matrix alone gates: -slo-out records it, and a row that
			// missed its SLO fails the run.
			if *sloOut != "" {
				if err := writeSLORecord(*sloOut, "slo "+scaleName, t); err != nil {
					fmt.Fprintln(os.Stderr, "zeus-bench:", err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", *sloOut)
			}
			for _, row := range t.Rows {
				failed = failed || row[t.Col("verdict")] != "PASS"
			}
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
