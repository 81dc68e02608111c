package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runAA is the A/A check: every run is a fresh process of this same binary,
// the way the benchmark's driver runs it, in the order A,B,A,B…, each run
// with its own seed. Per workload and metric it prints both sets' medians,
// how much worse B's is than A's, and the quartile spread of all runs as a
// share of their median. An end-to-end metric gets PASS or FAIL against its
// bound: the spread must stay within it (setup_s excepted, as in the
// contract) and so must the disagreement, in either direction: the two sets
// are the same code, so neither has a better side. The clock metrics an
// untraced run prints beside them are listed without a verdict.
func runAA(selected []workload, pairs int, seed int64, seconds int) error {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa judges against BENCHMARK.json in the working directory: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload/metric][set] lists the runs' values; names keeps the
	// order of first printing.
	values := map[string]*[2][]float64{}
	var names []string
	for i := 0; i < 2*pairs; i++ {
		set := i % 2
		for _, w := range selected {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10), "-seconds", strconv.Itoa(seconds))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", i, w.name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("run %d of %s: last line: %w", i, w.name, err)
			}
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if strings.HasPrefix(l, "#") || len(f) != 3 {
					continue
				}
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return fmt.Errorf("run %d of %s: line %q: %w", i, w.name, l, err)
				}
				if values[f[0]] == nil {
					values[f[0]] = new([2][]float64)
					names = append(names, f[0])
				}
				values[f[0]][set] = append(values[f[0]][set], v)
			}
			fmt.Printf("# run %d set %c %s seed %d: %d attempted, %d failed\n", i, 'A'+set, w.name, seed+int64(i), res.Attempted, res.Failed)
		}
	}
	declared := map[string]specMetric{} // only the end-to-end ones carry a bound
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		declared[m.Name] = m
	}
	fmt.Printf("%-34s %12s %12s %9s %9s %7s\n", "workload/metric", "median A", "median B", "B worse", "spread", "bound")
	failed := 0
	for _, name := range names {
		v := values[name]
		a, b := median(v[0]), median(v[1])
		all := append(slices.Clone(v[0]), v[1]...)
		q1, q3 := quartiles(all)
		spread := (q3 - q1) / median(all)
		m := declared[name[strings.IndexByte(name, '/')+1:]]
		worse := (b - a) / a
		if m.Better == "higher" {
			worse = -worse
		}
		if m.Bound == 0 {
			fmt.Printf("%-34s %12.6g %12.6g %+8.2f%% %8.2f%% %7s\n", name, a, b, 100*worse, 100*spread, "-")
			continue
		}
		verdict := "PASS"
		if math.Abs(worse) > m.Bound || (spread > m.Bound && m.Name != "setup_s") {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%-34s %12.6g %12.6g %+8.2f%% %8.2f%% %6.0f%%  %s\n", name, a, b, 100*worse, 100*spread, 100*m.Bound, verdict)
	}
	if failed > 0 {
		return fmt.Errorf("A/A: %d workload/metric pairs outside their bounds", failed)
	}
	return nil
}
