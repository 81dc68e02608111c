package experiments

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"zeus/internal/dbapi"
	"zeus/internal/wire"
)

// tiny is a minimal scale so every experiment completes in test time.
var tiny = Scale{
	AccountsPerNode:    300,
	SubscribersPerNode: 300,
	VotersPerNode:      400,
	UsersPerNode:       200,
	Sessions:           100,
	Workers:            2,
	OpsPerWorker:       40,
	Duration:           250 * time.Millisecond,
	Interval:           50 * time.Millisecond,
	Packets:            1500,
}

// A check is one thing an experiment's table must show: a shape of the
// paper's figure, or a property every run has.
type check struct {
	what string
	ok   func(t Table) bool
}

// everyRow is a check that holds when ok holds for each row.
func everyRow(what string, ok func(t Table, i int) bool) check {
	return check{what, func(t Table) bool {
		for i := range t.Rows {
			if !ok(t, i) {
				return false
			}
		}
		return true
	}}
}

// positive is a check that every row's named columns are above zero.
func positive(cols ...string) check {
	return everyRow(strings.Join(cols, ", ")+" above zero", func(t Table, i int) bool {
		for _, c := range cols {
			if t.Num(i, c) <= 0 {
				return false
			}
		}
		return true
	})
}

// A figure is what one experiment's table is at the tiny scale: its title,
// columns and row count, pinned, and the checks its cells must pass.
type figure struct {
	title  string
	cols   []string
	rows   int
	checks []check
}

var figures = map[string]figure{
	"tab2": {"Table 2: summary of evaluated benchmarks",
		[]string{"benchmark", "characteristic", "tables", "columns", "tx types", "read txs %"}, 4, []check{
			{"lists Handovers and TATP", func(t Table) bool { return t.Rows[0][0] == "Handovers" && t.Rows[2][0] == "TATP" }},
		}},
	"locality": {"Locality in workloads (§8)", []string{"analysis", "nodes", "remote %", "paper %"}, 7, []check{
		{"Boston's remote share grows from 3 to 6 nodes", func(t Table) bool { return t.Num(1, "remote %") > t.Num(0, "remote %") }},
		{"Venmo's remote share is above zero and grows from 3 to 6 nodes", func(t Table) bool {
			return t.Num(3, "remote %") > 0 && t.Num(4, "remote %") > t.Num(3, "remote %")
		}},
		{"TPC-C's calibrated remote share is within 2–3 %", func(t Table) bool {
			return t.Num(6, "remote %") >= 2 && t.Num(6, "remote %") <= 3
		}},
	}},
	"fig7": {"Figure 7: Handovers — all-local (ideal) vs Zeus",
		[]string{"nodes", "handovers %", "ideal tx/s", "zeus tx/s", "gap %"}, 4, []check{
			positive("ideal tx/s", "zeus tx/s"),
			// At the tiny scale timing noise dominates: only an order of
			// magnitude between the two is held. The paper's 4–9 % gap is
			// printed beside the measured one.
			everyRow("ideal and Zeus within 10x of each other", func(t Table, i int) bool {
				ideal, zeus := t.Num(i, "ideal tx/s"), t.Num(i, "zeus tx/s")
				return zeus <= ideal*10 && ideal <= zeus*10
			}),
		}},
	"fig8": {"Figure 8: Smallbank while varying remote write transactions", sweepCols, 4, []check{
		{"throughput at 0 % remote", func(t Table) bool {
			return t.Num(0, "zeus-3 tx/s/node") > 0 && t.Num(0, "occ2pc tx/s/node") > 0
		}},
		zeusBeatsOCCAtZeroRemote,
		// With noise slack at the tiny scale.
		{"Zeus decays with the remote share", func(t Table) bool {
			return t.Num(len(t.Rows)-1, "zeus-3 tx/s/node") <= t.Num(0, "zeus-3 tx/s/node")*1.3
		}},
	}},
	"fig9": {"Figure 9: TATP while varying remote write transactions", sweepCols, 5, []check{zeusBeatsOCCAtZeroRemote}},
	"fig10": {"Figure 10: Voter — moving all voter objects across nodes under load", withLat("voters", "moved", "move obj/s", "votes"), 1, []check{
		positive("moved", "move obj/s", "votes"),
		{"a timeline of votes", func(t Table) bool { return len(t.Notes) > 1 }},
	}},
	"fig11": {"Figure 11: Voter — votes concurrent with hot-object migration", withLat("hot moved", "move obj/s", "before op/s", "during op/s"), 1, []check{
		positive("hot moved"),
	}},
	"fig12": {"Figure 12: CDF of ownership request latency", withLat("samples", "mean"), 1, []check{
		positive("samples"),
		{"p50 ≤ p99 ≤ max", func(t Table) bool { return t.Num(0, "p50") <= t.Num(0, "p99") && t.Num(0, "p99") <= t.Num(0, "max") }},
	}},
	"fig13": {"Figure 13: cellular packet gateway control plane", []string{"datastore", "tx/s", "paper"}, 4, []check{
		positive("tx/s"),
		{"the blocking store is slower than Zeus 1 active", func(t Table) bool { return t.Num(1, "tx/s") <= t.Num(2, "tx/s") }},
	}},
	"fig14": {"Figure 14: SCTP throughput (single flow, per-packet state transactions)",
		[]string{"packet B", "no-repl Mbps", "zeus Mbps", "drop %"}, 2, []check{
			positive("no-repl Mbps", "zeus Mbps"),
			// Replication costs throughput (paper: ~40% at 1440B); at the
			// tiny scale only a large inversion is a real problem. Under race
			// the margin widens: the zero-copy FabricMem commit path made the
			// replicated run materially faster while the unreplicated
			// measurement keeps its occasional instrumentation-induced
			// collapses on starved hosts.
			everyRow("replicated at most 2x (4x under race) the unreplicated goodput", func(t Table, i int) bool {
				margin := 2.0
				if raceEnabled {
					margin = 4.0
				}
				return t.Num(i, "zeus Mbps") <= t.Num(i, "no-repl Mbps")*margin
			}),
			{"larger packets give higher goodput", func(t Table) bool { return t.Num(1, "zeus Mbps") >= t.Num(0, "zeus Mbps") }},
		}},
	"fig15": {"Figure 15: Nginx-style session persistence under scale-out/in", []string{"phase", "proxies", "tx/s"}, 3, []check{
		positive("tx/s"),
	}},
	"ablation": {"Ablations: pipelining, replication degree, loss tolerance", []string{"configuration", "tx/s"}, 8, []check{
		// Every row: pipelining both ways, each degree, and each loss rate
		// (zero throughput under loss is a failed messaging layer).
		positive("tx/s"),
		{"pipelining at least 0.8x blocking", func(t Table) bool { return t.Num(0, "tx/s") >= t.Num(1, "tx/s")*0.8 }},
	}},
	"transport": {"Transport: frame batching + delayed acks vs the per-message floor",
		[]string{"sends", "msgs", "data frames", "msgs/frame", "pure acks", "acks/frame", "counted acks", "msgs/s"}, 2, []check{
			{"messages sent in frames", func(t Table) bool { return t.Num(0, "msgs") > 0 && t.Num(0, "data frames") > 0 }},
			{"batching puts 4 or more messages in a frame", func(t Table) bool { return t.Num(0, "data frames")*4 <= t.Num(0, "msgs") }},
			// The frame counter acks at most every 8th (AckEvery) data frame.
			// The flush timer's and the idle gap's acks are not bounded: how
			// many there are is how loaded the host is (a pure-ack:frame
			// ratio bound failed 4–5 in 100 here; transport's
			// TestReliableAckCoalescingRatio had the same).
			{"at most one counted ack per 8 data frames, plus one", func(t Table) bool {
				return uint64(t.Num(0, "counted acks")) <= uint64(t.Num(0, "data frames"))/8+1
			}},
		}},
	"scaling": {"Scaling: local write tx vs worker pipelines", []string{"workers", "ops", "elapsed", "tx/s", "ns/op", "speedup"}, 4, []check{
		positive("tx/s", "ops"),
		{"1 to 8 workers, from a speedup of 1", func(t Table) bool {
			return t.Num(0, "workers") == 1 && t.Num(0, "speedup") == 1 && t.Num(3, "workers") == 8
		}},
	}},
	"directory": {"Directory sharding: ownership-REQ throughput vs shard count (6 nodes, 48 hot objects)",
		[]string{"shards", "acquired", "elapsed", "acq/s", "reqs", "nacks", "timeouts", "speedup"}, 4, nil},
	"readscale": {"Readscale: read-only transactions vs reader replicas",
		[]string{"mix", "replicas", "reads", "writes", "elapsed", "reads/s", "speedup", "owner RO commits", "reader own reqs"}, 6, []check{
			positive("reads", "reads/s"),
			// The headline invariants hold at every point: read-only
			// transactions are served entirely by the reader replicas and
			// generate no ownership traffic.
			everyRow("no read-only commits at the owner", func(t Table, i int) bool { return t.Num(i, "owner RO commits") == 0 }),
			everyRow("no ownership requests from the readers", func(t Table, i int) bool { return t.Num(i, "reader own reqs") == 0 }),
			everyRow("writes in the 95/5 mix alone", func(t Table, i int) bool {
				return (t.Rows[i][0] == "95/5") == (t.Num(i, "writes") > 0)
			}),
			{"1 replica at a speedup of 1 first, the 95/5 mix from row 3", func(t Table) bool {
				return t.Num(0, "replicas") == 1 && t.Num(0, "speedup") == 1 && t.Rows[3][0] == "95/5"
			}},
		}},
	"slo": {"SLO: open-loop latency over application workloads",
		[]string{"point", "offered", "done", "err", "tx/s", "p50", "p99", "p999", "max", "ack p99", "applied p99", "verdict"}, 11, []check{
			{"SLO records keyed on epcgw/netsim/n3/r1000/const first, Poisson and TCP points present", func(t Table) bool {
				return t.Rows[0][0] == "epcgw/netsim/n3/r1000/const" &&
					strings.HasSuffix(t.Rows[8][0].(string), "/poisson") && strings.Contains(t.Rows[9][0].(string), "/tcp/")
			}},
			positive("offered", "done"),
			everyRow("the open loop accounts for every arrival (offered = done + err)", func(t Table, i int) bool {
				return t.Num(i, "offered") == t.Num(i, "done")+t.Num(i, "err")
			}),
			everyRow("every row passes its SLO (a failed row's notes say why)", func(t Table, i int) bool {
				return t.Rows[i][t.Col("verdict")] == "PASS"
			}),
		}},
}

var sweepCols = []string{"remote %", "zeus-3 tx/s/node", "zeus-6 tx/s/node", "occ2pc tx/s/node"}

func withLat(cols ...string) []string { return append(cols, latCols...) }

// The paper's shape: Zeus wins clearly at 0 % remote (local transactions
// against distributed commit), with slack for noise at the tiny scale.
var zeusBeatsOCCAtZeroRemote = check{"Zeus at least 0.7x OCC+2PC at 0 % remote", func(t Table) bool {
	return t.Num(0, "zeus-3 tx/s/node") >= t.Num(0, "occ2pc tx/s/node")*0.7
}}

// testFigure runs experiment id at the tiny scale, holds its table's shape
// against figures and runs its checks; on a failure it logs the table.
func testFigure(t *testing.T, id string) {
	want := figures[id]
	i := slices.IndexFunc(All, func(e Experiment) bool { return e.ID == id })
	tab := All[i].Run(tiny)
	var out bytes.Buffer
	tab.Print(&out)
	if tab.Title != want.title || !slices.Equal(tab.Cols, want.cols) || len(tab.Rows) != want.rows {
		t.Fatalf("%s: table %q, columns %q, %d rows; want %q, %q, %d rows:\n%s",
			id, tab.Title, tab.Cols, len(tab.Rows), want.title, want.cols, want.rows, out.String())
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Cols) {
			t.Fatalf("%s: row %v has %d cells for %d columns", id, row, len(row), len(tab.Cols))
		}
	}
	for _, c := range want.checks {
		if !c.ok(tab) {
			t.Errorf("%s: %s does not hold", id, c.what)
		}
	}
	if t.Failed() {
		t.Log(out.String())
	}
}

func TestTable2Experiment(t *testing.T)    { testFigure(t, "tab2") }
func TestLocalityExperiment(t *testing.T)  { testFigure(t, "locality") }
func TestFig7Experiment(t *testing.T)      { testFigure(t, "fig7") }
func TestFig8Experiment(t *testing.T)      { testFigure(t, "fig8") }
func TestFig9Experiment(t *testing.T)      { testFigure(t, "fig9") }
func TestFig10Experiment(t *testing.T)     { testFigure(t, "fig10") }
func TestFig11Experiment(t *testing.T)     { testFigure(t, "fig11") }
func TestFig12Experiment(t *testing.T)     { testFigure(t, "fig12") }
func TestFig13Experiment(t *testing.T)     { testFigure(t, "fig13") }
func TestFig14Experiment(t *testing.T)     { testFigure(t, "fig14") }
func TestFig15Experiment(t *testing.T)     { testFigure(t, "fig15") }
func TestAblationsExperiment(t *testing.T) { testFigure(t, "ablation") }
func TestTransportExperiment(t *testing.T) { testFigure(t, "transport") }
func TestScalingExperiment(t *testing.T)   { testFigure(t, "scaling") }
func TestDirectoryExperiment(t *testing.T) { testFigure(t, "directory") }
func TestReadScaleExperiment(t *testing.T) { testFigure(t, "readscale") }
func TestSLOExperiment(t *testing.T)       { testFigure(t, "slo") }

// TestCatalogIsTheRegistry holds README.md's experiment catalog (the table
// `zeus-bench -list` prints) and the figures above to experiments.All: the
// same ids, in the same order, with the same descriptions.
func TestCatalogIsTheRegistry(t *testing.T) {
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var readme []Experiment
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.Contains(line, "experiment catalog (`zeus-bench -list`)"):
			in = true
		case in && strings.HasPrefix(line, "| `"):
			cells := strings.Split(line, "|")
			readme = append(readme, Experiment{ID: strings.Trim(cells[1], " `"), Desc: strings.TrimSpace(cells[2])})
		case in && len(readme) > 0 && !strings.HasPrefix(line, "|"):
			in = false
		}
	}
	eq := func(a, b Experiment) bool { return a.ID == b.ID && a.Desc == b.Desc }
	if !slices.EqualFunc(readme, All, eq) {
		var want strings.Builder
		for _, e := range All {
			want.WriteString("| `" + e.ID + "` | " + e.Desc + " |\n")
		}
		t.Errorf("README.md's experiment catalog is not experiments.All; its rows should read:\n%s", want.String())
	}
	for _, e := range All {
		if _, ok := figures[e.ID]; !ok {
			t.Errorf("experiment %q has no figure declared in this test", e.ID)
		}
	}
	if len(figures) != len(All) {
		t.Errorf("%d figures declared for %d experiments", len(figures), len(All))
	}
}

// Figure 13's blocking store homes every context on its one server, and the
// gateway's blind bearer writes, made from the client node, land there.
func TestBlockingStoreServerHomesEveryObject(t *testing.T) {
	const users = 16
	gw, server, closeStore := newBlockingStore(users)
	defer closeStore()
	for ue := 0; ue < users; ue++ {
		for _, obj := range []uint64{gw.UEObj(ue), gw.BearerObj(ue)} {
			if p := server.Primary(wire.ObjectID(obj)); p != 0 {
				t.Fatalf("ue %d: object %d homed on node %d, not the server", ue, obj, p)
			}
		}
	}
	if err := gw.ServiceRequest(0, 3); err != nil {
		t.Fatal(err)
	}
	err := dbapi.RunRO(server, 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(gw.BearerObj(3))
		if err == nil && binary.LittleEndian.Uint64(v[8:]) != 1 {
			t.Errorf("bearer context of ue 3 has seq %d at the server, want 1", binary.LittleEndian.Uint64(v[8:]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
