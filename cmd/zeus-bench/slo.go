package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"zeus/internal/experiments"
)

// sloP99Tolerance is the default allowed p99 growth factor for the SLO
// compare gate: new_p99 may reach old_p99 × (1 + tolerance). The band is
// deliberately wide — 3× at the default 2.0 — because the baseline is
// recorded on a 1-vCPU host while CI runners differ in core count, scheduler
// noise and co-tenancy, and short quick-scale runs put few thousand samples
// in the tail buckets. It still catches the failure mode the gate exists
// for: a stall-class regression (wedged pipeline, lost wakeup, runaway
// retry) inflates p99 by orders of magnitude, not tens of percent. A
// baseline file can override it via "p99_tolerance".
const sloP99Tolerance = 2.0

// sloP99Floor is the absolute arm of the gate: a row only counts as a
// regression when its new p99 also exceeds this. Healthy quick-scale p99s on
// this matrix sit at 0.5–15 ms, where scheduler noise on a shared CI core
// routinely swings 3–4× between runs — ratios alone are meaningless at that
// scale. 25 ms is 10% of the 250 ms in-run p99 objective: comfortably above
// the noise band, far below any stall. Override via "p99_floor_ns".
const sloP99Floor = 25 * time.Millisecond

// sloRecordRow is one matrix point's percentiles in an SLO record.
type sloRecordRow struct {
	P50NS  int64   `json:"p50_ns"`
	P99NS  int64   `json:"p99_ns"`
	P999NS int64   `json:"p999_ns"`
	MaxNS  int64   `json:"max_ns"`
	Tps    float64 `json:"tps"`
	Pass   bool    `json:"pass"`
}

// sloRecord mirrors BENCH_SLO.json: the tracked open-loop percentile
// baseline, keyed by workload/fabric/n<nodes>/r<rate>/<arrival>.
type sloRecord struct {
	Label        string                  `json:"label"`
	Recorded     string                  `json:"recorded"`
	Host         string                  `json:"host"`
	Command      string                  `json:"command"`
	Note         string                  `json:"note"`
	P99Tolerance float64                 `json:"p99_tolerance"`
	P99FloorNS   int64                   `json:"p99_floor_ns"`
	Rows         map[string]sloRecordRow `json:"rows"`
}

// writeSLORecord serializes the SLO matrix's table for the -compare gate.
func writeSLORecord(path, label string, t experiments.Table) error {
	rec := sloRecord{
		Label:        label,
		Recorded:     time.Now().UTC().Format(time.RFC3339),
		Host:         fmt.Sprintf("%d-core %s/%s (GOMAXPROCS=%d)", runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0)),
		Command:      "go run ./cmd/zeus-bench -experiment slo -slo-out " + path,
		Note:         "open-loop intended-send-time percentiles; -compare flags a row only when p99 grows past old × (1+p99_tolerance) AND exceeds p99_floor_ns",
		P99Tolerance: sloP99Tolerance,
		P99FloorNS:   int64(sloP99Floor),
		Rows:         make(map[string]sloRecordRow, len(t.Rows)),
	}
	for i, row := range t.Rows {
		rec.Rows[row[t.Col("point")].(string)] = sloRecordRow{
			P50NS:  int64(t.Num(i, "p50")),
			P99NS:  int64(t.Num(i, "p99")),
			P999NS: int64(t.Num(i, "p999")),
			MaxNS:  int64(t.Num(i, "max")),
			Tps:    t.Num(i, "tx/s"),
			Pass:   row[t.Col("verdict")] == "PASS",
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadSLORecord(path string) (sloRecord, error) {
	var r sloRecord
	b, err := os.ReadFile(path)
	if err != nil {
		return r, fmt.Errorf("zeus-bench: %w", err)
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("zeus-bench: parsing %s: %w", path, err)
	}
	return r, nil
}

// compareSLORecords prints the p99 delta per matrix row and gates: a row
// whose new p99 exceeds old_p99 × (1 + tolerance) AND the absolute floor is
// a regression, and a row that failed its own in-run SLO (incidents
// included) fails outright.
func compareSLORecords(w io.Writer, oldPath, newPath string) error {
	oldRec, err := loadSLORecord(oldPath)
	if err != nil {
		return err
	}
	newRec, err := loadSLORecord(newPath)
	if err != nil {
		return err
	}
	tol := oldRec.P99Tolerance
	if tol <= 0 {
		tol = sloP99Tolerance
	}
	floor := time.Duration(oldRec.P99FloorNS)
	if floor <= 0 {
		floor = sloP99Floor
	}
	fmt.Fprintf(w, "SLO delta: %s (%s)\n    →      %s (%s)   [p99 gate: ≤ old × %.1f, floor %v]\n",
		oldRec.Label, oldRec.Recorded, newRec.Label, newRec.Recorded, 1+tol, floor)
	keys := make([]string, 0, len(oldRec.Rows))
	for k := range oldRec.Rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var failures []string
	for _, k := range keys {
		o := oldRec.Rows[k]
		n, ok := newRec.Rows[k]
		if !ok {
			fmt.Fprintf(w, "  %-34s p99 %8s  →  (absent)\n", k, time.Duration(o.P99NS))
			continue
		}
		delta := 0.0
		if o.P99NS > 0 {
			delta = float64(n.P99NS-o.P99NS) / float64(o.P99NS)
		}
		mark := ""
		if o.P99NS > 0 && float64(n.P99NS) > float64(o.P99NS)*(1+tol) && time.Duration(n.P99NS) > floor {
			mark = "  REGRESSION (p99 gate)"
			failures = append(failures, fmt.Sprintf("%s p99 %+.0f%%", k, 100*delta))
		}
		if !n.Pass {
			mark += "  FAILED in-run SLO"
			failures = append(failures, fmt.Sprintf("%s failed its in-run SLO", k))
		}
		fmt.Fprintf(w, "  %-34s p99 %8s  →  %8s  (%+.0f%%)%s\n",
			k, time.Duration(o.P99NS), time.Duration(n.P99NS), 100*delta, mark)
	}
	added := make([]string, 0, len(newRec.Rows))
	for k := range newRec.Rows {
		if _, ok := oldRec.Rows[k]; !ok {
			added = append(added, k)
		}
	}
	sort.Strings(added)
	for _, k := range added {
		n := newRec.Rows[k]
		fmt.Fprintf(w, "  %-34s      (new)  →  %8s\n", k, time.Duration(n.P99NS))
		if !n.Pass {
			failures = append(failures, fmt.Sprintf("%s failed its in-run SLO", k))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("zeus-bench: SLO gate failed: %s", strings.Join(failures, ", "))
	}
	return nil
}
