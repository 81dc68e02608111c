package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"zeus/internal/bench"
	"zeus/internal/dbapi"
)

// smoke is a run small enough for `go test`: 1/50 of the population and
// 300 ms of load. Too short for the stationarity check, which needs
// minGatedWindows; every other validity check applies.
func smoke(w workload, t *tracer) runConfig {
	return runConfig{
		w: w, seed: 1, scale: 1.0 / 50, setups: 1,
		warmup: 50 * time.Millisecond, window: 50 * time.Millisecond, windows: 6,
		tracer: t,
	}
}

func loadTestSpec(t *testing.T) spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpecWithinTheContract(t *testing.T) {
	sp := loadTestSpec(t)
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", sp.Paths)
	}
	if n := len(sp.Workloads); n < 2 || n > 4 {
		t.Errorf("%d workloads, want 2..4", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table has %d", len(sp.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q: want letters, digits, _ . - only, at most 64", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range sp.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		unique(m.Name)
		// ISSUE 13 caps a gated bound at 10 %. setup_s alone may go up to
		// the contract's 25 %: the contract demands it among the gated
		// metrics with the largest bound, and it is the one reading of the
		// clock among them.
		limit := 0.10
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range sp.PerLayer {
		unique(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// checkOutput asserts that a run printed each metric of want and of ungated
// exactly once as "<workload>/<name> <value> <unit>", no other metric line,
// and a last JSON line carrying exactly the names and units of want.
func checkOutput(t *testing.T, workload string, out []byte, want, ungated []specMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	printed := map[string]string{} // name -> unit
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Fields(l)
		name, ok := strings.CutPrefix(f[0], workload+"/")
		if len(f) != 3 || !ok {
			t.Errorf("%s: unexpected line %q", workload, l)
			continue
		}
		if _, dup := printed[name]; dup {
			t.Errorf("%s: %s printed twice", workload, name)
		}
		printed[name] = f[2]
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("%s: result %+v: want correct, attempted > 0, failed 0", workload, res)
	}
	if len(printed) != len(want)+len(ungated) || len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metric lines, %d in the result object, want %d and %d", workload, len(printed), len(res.Metrics), len(want)+len(ungated), len(want))
	}
	for _, m := range append(want[:len(want):len(want)], ungated...) {
		if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
			t.Errorf("%s: %s printed with unit %q (present: %t), BENCHMARK.json says %q", workload, m.Name, unit, ok, m.Unit)
		}
	}
	for _, m := range want {
		if j, ok := res.Metrics[m.Name]; !ok || j.Unit != m.Unit {
			t.Errorf("%s: result object has %s as %+v (present: %t), want unit %q", workload, m.Name, j, ok, m.Unit)
		}
	}
}

func TestEveryWorkloadPrintsEveryDeclaredMetric(t *testing.T) {
	sp := loadTestSpec(t)
	lad, err := runLadder(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"hub_rtt_us", lad.hubRTTus}, {"tcp_rtt_us", lad.tcpRTTus}, {"reliable_rtt_us", lad.reliableRTTus},
		{"codec_ns", lad.codecNS}, {"codec_allocs", lad.codecAllocs}, {"store_get_ns", lad.storeGetNS}, {"bulk_move_per_s", lad.bulkMovePerS},
	} {
		if !(f.v > 0) {
			t.Errorf("ladder: %s = %v, want > 0", f.name, f.v)
		}
	}
	// The clock metrics lead the per-layer list; an untraced run prints them
	// beside the gated ones.
	clock := sp.PerLayer[:4]
	if clock[0].Name != "tps" || clock[3].Name != "cpu_us_per_op" {
		t.Fatalf("per_layer starts with %v, want the four clock metrics", clock)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		var out bytes.Buffer
		if err := runOne(&out, smoke(w, nil), ladder{}, dir); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkOutput(t, w.name, out.Bytes(), sp.EndToEnd, clock)

		out.Reset()
		if err := runOne(&out, smoke(w, newTracer()), lad, dir); err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkOutput(t, w.name, out.Bytes(), sp.PerLayer, nil)
		if !strings.Contains(out.String(), "# budget "+w.name) {
			t.Errorf("%s traced: no budget table", w.name)
		}
		checkSpanFile(t, dir+"/"+w.name+".trace.json")
	}
}

// checkSpanFile parses a traced run's span file and requires every child
// span to lie inside its parent and to share its op.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string `json:"workload"`
		Spans    []struct {
			Op     uint64 `json:"op"`
			ID     int    `json:"id"`
			Parent int    `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	names := map[string]bool{}
	opStart := 0 // index of the current op's first span
	for i, s := range doc.Spans {
		names[s.Name] = true
		if s.ID == 0 {
			opStart = i
			if s.Parent != -1 || s.Name != "op" {
				t.Fatalf("%s: span %d opens op %d as %q with parent %d", path, i, s.Op, s.Name, s.Parent)
			}
		}
		if s.End < s.Start {
			t.Fatalf("%s: span %d (%s) ends before it starts", path, i, s.Name)
		}
		if s.ID == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			t.Fatalf("%s: span %d (%s) has parent %d, want an earlier span of its op", path, i, s.Name, s.Parent)
		}
		p := doc.Spans[opStart+s.Parent]
		if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Fatalf("%s: span %d %s [%d,%d] of op %d is not inside its parent %s [%d,%d] of op %d",
				path, i, s.Name, s.Start, s.End, s.Op, p.Name, p.Start, p.End, p.Op)
		}
	}
	for _, want := range []string{"op", "dbapi.run", "dbapi.attempt", "core.begin", "core.get", "core.commit"} {
		if !names[want] {
			t.Errorf("%s: no %s span", path, want)
		}
	}
}

// A workload that does not do what its name claims must be rejected, not
// measured: Smallbank with remote writes under the smallbank_local name
// moves ownership, which smallbank_local promises not to.
func TestMislabelledWorkloadIsRejected(t *testing.T) {
	w, _ := workloadByName("smallbank_local")
	w.gen = smallbank(0.20)
	var out bytes.Buffer
	err := runOne(&out, smoke(w, nil), ladder{}, t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "without ownership moves") {
		t.Fatalf("run accepted (err = %v), want it rejected for moving ownership", err)
	}
	if out.Len() != 0 {
		t.Errorf("a rejected run printed:\n%s", out.String())
	}

	// And the other way round: the remote workload with nothing remote.
	w, _ = workloadByName("smallbank_remote")
	w.gen = smallbank(0)
	if err := runOne(&out, smoke(w, nil), ladder{}, t.TempDir()); err == nil || !strings.Contains(err.Error(), "moved none") {
		t.Fatalf("run accepted (err = %v), want it rejected for moving nothing", err)
	}
}

// drifting makes every op allocate more from a point in time on: the run's
// first and last thirds then disagree on the work an op takes.
type drifting struct {
	generator
	after time.Duration // from the moment the ops are made, just before the clients start
}

var garbage [clients][]byte

func (d drifting) MakeOp(node int, db dbapi.DB) bench.Op {
	op := d.generator.MakeOp(node, db)
	from := time.Now().Add(d.after)
	return func(worker int, rng *rand.Rand) error {
		if time.Now().After(from) {
			for i := 0; i < 8; i++ {
				garbage[worker] = make([]byte, 64)
			}
		}
		return op(worker, rng)
	}
}

// The stationarity check must trip on workloads that never move ownership
// too, and must let through a run that does not drift.
func TestNonStationaryRunIsRejected(t *testing.T) {
	for _, name := range []string{"smallbank_local", "tatp_read"} {
		w, _ := workloadByName(name)
		cfg := smoke(w, nil)
		cfg.window, cfg.windows = 20*time.Millisecond, minGatedWindows
		// At 200 accounts Smallbank's aborted attempts, which allocate and
		// commit nothing, come and go by more than the tolerance within
		// 300 ms; TATP's do not.
		if name == "tatp_read" {
			if _, err := execute(cfg); err != nil {
				t.Fatalf("%s, steady: %v", name, err)
			}
		}
		steady := w.gen
		cfg.w.gen = func(scale float64) generator {
			return drifting{steady(scale), cfg.warmup + cfg.window*time.Duration(cfg.windows)/2}
		}
		if _, err := execute(cfg); err == nil || !strings.Contains(err.Error(), "not stationary") {
			t.Fatalf("%s, drifting: run accepted (err = %v), want it rejected as not stationary", name, err)
		}
	}
}
