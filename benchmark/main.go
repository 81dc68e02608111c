// Command benchmark is the repository's benchmark: closed-loop transaction
// workloads against in-process 3-node Zeus clusters, three gated end-to-end
// metrics and four clock readings per workload, and a traced run that breaks
// an op's latency down by layer. BENCHMARK.json declares the names; README.md defines them.
//
//	go run ./benchmark                         every workload, end-to-end metrics
//	go run ./benchmark -workload tatp_read     one workload
//	go run ./benchmark -trace 1                per-layer metrics and the budget table
//	go run ./benchmark -aa 3                   A/A check against BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// Fixed shape of a run. The measured interval is -seconds one-second
// windows.
const (
	warmup      = 5 * time.Second
	windowLen   = time.Second
	setupRepeat = 31
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them, in table order)")
		seed    = flag.Int64("seed", 1, "seeds the clients' generators")
		seconds = flag.Int("seconds", 20, "measured interval, in one-second windows")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
		aa      = flag.Int("aa", 0, "run the end-to-end set N times as each of two interleaved sets and judge it against BENCHMARK.json")
		out     = flag.String("out", "benchmark/out", "directory for the traced run's span files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	var err error
	if *aa > 0 {
		err = runAA(selected, *aa, *seed, *seconds)
	} else {
		err = runAll(os.Stdout, selected, *seed, *seconds, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAll runs the workloads one after the other. Each prints its metrics as
// "<workload>/<metric> <value> <unit>" lines and then one JSON line, the
// form the benchmark's contract reads (it takes the last line).
func runAll(w io.Writer, selected []workload, seed int64, seconds int, traced bool, outDir string) error {
	fmt.Fprintf(w, "# zeus benchmark: %s nproc=%d GOMAXPROCS=%d seed=%d clients=%d (closed loop) warmup=%s windows=%dx%s trace=%t\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, clients, warmup, seconds, windowLen, traced)
	var lad ladder
	if traced {
		var err error
		if lad, err = runLadder(1); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	for _, wl := range selected {
		cfg := runConfig{
			w: wl, seed: seed, scale: 1,
			setups: setupRepeat, warmup: warmup, window: windowLen, windows: seconds,
		}
		if traced {
			cfg.tracer, cfg.setups = newTracer(), 1
		}
		if err := runOne(w, cfg, lad, outDir); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	return nil
}

// runOne executes one run and prints it. Nothing is printed for a run that
// fails a validity check.
func runOne(w io.Writer, cfg runConfig, lad ladder, outDir string) error {
	res, err := execute(cfg)
	if err != nil {
		return err
	}
	// ms goes into the result object; an untraced run also prints the four
	// clock metrics, which gate nothing and are declared per-layer.
	var ms, ungated []metric
	if cfg.tracer == nil {
		ms, ungated = endToEnd(res), timing(res, 1)
		fmt.Fprintf(w, "# %s: %d ops in %d windows, %d failed; tps by window:", cfg.w.name, res.ops(), cfg.windows, res.failed)
		for i := range res.win {
			fmt.Fprintf(w, " %.0f", res.windowTPS(i))
		}
		first, last := res.thirds()
		n := cfg.windows
		fmt.Fprintf(w, "; first third %.0f, last third %.0f; heap allocations per op %.3f and %.3f\n",
			first, last, res.perOp(res.winAllocs, 0, n/3), res.perOp(res.winAllocs, n-n/3, n))
	} else {
		var bud budget
		ms, bud = perLayer(res, lad)
		path, err := cfg.tracer.writeSpans(outDir, cfg.w.name, cfg.seed)
		if err != nil {
			return fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(w, "# %s: %d ops, %.0f of them traced, %d failed, spans of 1 op in %d in %s\n",
			cfg.w.name, res.ops(), bud.traced, res.failed, sampleEvery, path)
		bud.print(w, cfg.w.name)
	}
	for _, m := range append(ungated, ms...) {
		fmt.Fprintf(w, "%s/%s %.6g %s\n", cfg.w.name, m.name, m.value, m.unit)
	}
	return json.NewEncoder(w).Encode(resultLine(res, ms))
}

// resultJSON is the last line of a run.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(res *runResult, ms []metric) resultJSON {
	// A run that reaches this point passed every validity check, replica
	// agreement included: its outputs are correct.
	r := resultJSON{Correct: true, Attempted: res.ops() + res.failed, Failed: res.failed, Metrics: map[string]metricJSON{}}
	for _, m := range ms {
		r.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
	return r
}

func (b budget) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "# budget %s: mean op latency %.3f us over %.0f traced ops\n", workload, b.meanLat, b.traced)
	fmt.Fprintf(w, "#   %-36s %10s %7s\n", "layer", "us/op", "share")
	var sum float64
	for _, r := range b.rows {
		sum += r.us
		fmt.Fprintf(w, "#   %-36s %10.3f %6.1f%%\n", r.layer, r.us, 100*r.us/b.meanLat)
	}
	fmt.Fprintf(w, "#   %-36s %10.3f %6.1f%%\n", "sum", sum, 100*sum/b.meanLat)
	fmt.Fprintf(w, "#   %s\n", strings.Repeat("-", 55))
	fmt.Fprintf(w, "#   %-36s %10.3f   (inside core.get/core.set)\n", "of which ownership acquisition", b.acquireUS)
	fmt.Fprintf(w, "#   %-36s %10.3f   (clients, owners, followers, GC)\n", "process CPU per op", b.cpuUS)
}
