package experiments

import (
	"bytes"
	"encoding/binary"
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

func renders(t *testing.T, print func(*bytes.Buffer), want ...string) {
	t.Helper()
	var buf bytes.Buffer
	print(&buf)
	out := buf.String()
	if out == "" {
		t.Fatal("empty rendering")
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
}

func TestTable2Experiment(t *testing.T) {
	r := Table2()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Handovers", "TATP")
}

func TestLocalityExperiment(t *testing.T) {
	r := Locality()
	if r.BostonRemoteHandovers6 <= r.BostonRemoteHandovers3 {
		t.Fatalf("boston fractions not monotonic: %+v", r)
	}
	if r.VenmoRemote3 <= 0 || r.VenmoRemote6 <= r.VenmoRemote3 {
		t.Fatalf("venmo fractions wrong: %+v", r)
	}
	if r.TPCCCalibrated < 0.02 || r.TPCCCalibrated > 0.03 {
		t.Fatalf("tpcc calibrated %.4f", r.TPCCCalibrated)
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Venmo", "TPC-C")
}

func TestFig7Experiment(t *testing.T) {
	rows := Fig7(tiny)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.IdealTps <= 0 || r.ZeusTps <= 0 {
			t.Fatalf("zero throughput: %+v", r)
		}
		// At the tiny test scale timing noise dominates; only require the
		// two configurations to be within an order of magnitude. The
		// paper-shape assertion (Zeus within ~10% of ideal) is checked by
		// the full-scale harness (cmd/zeus-bench, whose fig7 output puts
		// the paper's 4–9 % gap beside the measured one).
		if r.ZeusTps > r.IdealTps*10 || r.IdealTps > r.ZeusTps*10 {
			t.Fatalf("ideal vs zeus diverge beyond noise: %+v", r)
		}
	}
	renders(t, func(b *bytes.Buffer) { PrintFig7(b, rows) }, "Figure 7")
}

func TestFig8Experiment(t *testing.T) {
	rows := Fig8(tiny)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Zeus3PerNode <= 0 || rows[0].BaselinePerNode <= 0 {
		t.Fatalf("zero tput at 0%% remote: %+v", rows[0])
	}
	// The paper's shape: Zeus wins clearly at 0% remote (local txs vs
	// distributed commit). Allow tight-noise slack at the tiny scale.
	if rows[0].Zeus3PerNode < rows[0].BaselinePerNode*0.7 {
		t.Fatalf("Zeus slower than distributed commit at 0%% remote: %+v", rows[0])
	}
	// Zeus throughput decays as remote fraction rises (with noise slack).
	if rows[len(rows)-1].Zeus3PerNode > rows[0].Zeus3PerNode*1.3 {
		t.Fatalf("Zeus did not decay with remote fraction: first %+v last %+v",
			rows[0], rows[len(rows)-1])
	}
	renders(t, func(b *bytes.Buffer) { PrintSweep(b, "Figure 8: Smallbank", rows) }, "remote-%")
}

func TestFig9Experiment(t *testing.T) {
	rows := Fig9(tiny)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Zeus3PerNode < rows[0].BaselinePerNode*0.7 {
		t.Fatalf("Zeus slower than baseline at 0%% remote on read-heavy TATP: %+v", rows[0])
	}
}

func TestFig10Experiment(t *testing.T) {
	r := Fig10(tiny)
	if r.Moved == 0 || r.MoveRate <= 0 {
		t.Fatalf("no migration: %+v", r)
	}
	if len(r.Samples) == 0 || r.TotalVotes == 0 {
		t.Fatalf("no load: moved=%d votes=%d", r.Moved, r.TotalVotes)
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Figure 10", "move rate")
}

func TestFig11Experiment(t *testing.T) {
	r := Fig11(tiny)
	if r.HotMoved == 0 {
		t.Fatalf("no hot objects moved: %+v", r)
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Figure 11")
}

func TestFig12Experiment(t *testing.T) {
	r := Fig12(tiny)
	if r.Count == 0 {
		t.Fatal("no ownership latencies collected")
	}
	if r.P50 > r.P99 || r.P99 > r.Max {
		t.Fatalf("percentiles out of order: %+v", r)
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Figure 12")
}

func TestFig13Experiment(t *testing.T) {
	r := Fig13(tiny)
	if r.LocalTps <= 0 || r.BlockingTps <= 0 || r.Zeus1ActiveTps <= 0 || r.Zeus2ActiveTps <= 0 {
		t.Fatalf("zero throughput: %+v", r)
	}
	// Paper shape: the blocking store is the slowest configuration.
	if r.BlockingTps > r.Zeus1ActiveTps {
		t.Fatalf("blocking store beat Zeus: %+v", r)
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Figure 13")
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

func TestFig14Experiment(t *testing.T) {
	r := Fig14(tiny)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.NoReplMbps <= 0 || row.ZeusMbps <= 0 {
			t.Fatalf("zero goodput: %+v", row)
		}
		// Replication costs throughput (paper: ~40% at 1440B). At the
		// tiny test scale allow generous noise; only a large inversion
		// indicates a real problem. Under race the margin widens: the
		// zero-copy FabricMem commit path made the replicated run
		// materially faster while the unreplicated measurement keeps its
		// occasional instrumentation-induced collapses on starved hosts.
		margin := 2.0
		if raceEnabled {
			margin = 4.0
		}
		if row.ZeusMbps > row.NoReplMbps*margin {
			t.Fatalf("replicated much faster than unreplicated: %+v", row)
		}
	}
	// Larger packets give higher goodput.
	if r.Rows[1].ZeusMbps < r.Rows[0].ZeusMbps {
		t.Fatalf("1440B slower than 150B: %+v", r.Rows)
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Figure 14")
}

func TestFig15Experiment(t *testing.T) {
	r := Fig15(tiny)
	if r.OneProxyTps <= 0 || r.TwoProxyTps <= 0 || r.BackToOneTps <= 0 {
		t.Fatalf("zero rate: %+v", r)
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Figure 15")
}

func TestAblationsExperiment(t *testing.T) {
	r := Ablations(tiny)
	if r.PipelinedTps <= 0 || r.BlockingTps <= 0 {
		t.Fatalf("zero tput: %+v", r)
	}
	// Pipelining must not be slower than blocking on every-tx replication.
	if r.PipelinedTps < r.BlockingTps*0.8 {
		t.Fatalf("pipelining slower than blocking: %+v", r)
	}
	for _, d := range []int{1, 2, 3} {
		if r.DegreeTps[d] <= 0 {
			t.Fatalf("degree %d zero tput", d)
		}
	}
	for _, l := range []int{0, 1, 5} {
		if r.LossTps[l] <= 0 {
			t.Fatalf("loss %d%% zero tput (messaging layer failed)", l)
		}
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Ablations")
}

func TestScalingExperiment(t *testing.T) {
	r := Scaling(tiny)
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Tps <= 0 || row.Ops <= 0 {
			t.Fatalf("workers=%d: empty row %+v", row.Workers, row)
		}
	}
	if r.Rows[0].Workers != 1 || r.Rows[0].Speedup != 1 {
		t.Fatalf("baseline row malformed: %+v", r.Rows[0])
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Scaling", "workers=8")
}

func TestReadScaleExperiment(t *testing.T) {
	r := ReadScale(tiny)
	if len(r.Rows) != 6 {
		t.Fatalf("want 6 rows (2 mixes x 3 replica counts), got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ReadOps <= 0 || row.Tps <= 0 {
			t.Fatalf("empty row: %+v", row)
		}
		// The headline invariants hold at every point: snapshot reads are
		// served entirely by the reader replicas (zero ring reads at the
		// owner) and generate zero ownership traffic.
		if row.OwnerRingReads != 0 {
			t.Fatalf("owner served %d ring reads: %+v", row.OwnerRingReads, row)
		}
		if row.ReaderOwnReqs != 0 {
			t.Fatalf("readers issued %d ownership requests: %+v", row.ReaderOwnReqs, row)
		}
		if row.WritePct == 0 && row.WriteOps != 0 {
			t.Fatalf("100/0 mix committed writes: %+v", row)
		}
		if row.WritePct > 0 && row.WriteOps == 0 {
			t.Fatalf("95/5 mix committed no writes: %+v", row)
		}
	}
	if r.Rows[0].Replicas != 1 || r.Rows[0].Speedup != 1 {
		t.Fatalf("baseline row malformed: %+v", r.Rows[0])
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Readscale", "replicas=4", "mix  95/5")
}

func TestTransportExperiment(t *testing.T) {
	r := Transport(tiny)
	if r.Msgs == 0 || r.BatchedFrames == 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if r.BatchedFrames*4 > r.Msgs {
		t.Fatalf("batching inert: %d frames for %d msgs", r.BatchedFrames, r.Msgs)
	}
	// The frame counter acks at most every 8th (AckEvery) data frame. The
	// flush timer's and the idle gap's acks are not bounded: how many there
	// are is how loaded the host is (a pure-ack:frame ratio bound failed 4–5
	// in 100 here; transport's TestReliableAckCoalescingRatio had the same).
	if bound := r.BatchedFrames/8 + 1; r.BatchedCounted > bound {
		t.Fatalf("ack coalescing inert: %d acks by the frame count for %d data frames, want at most %d", r.BatchedCounted, r.BatchedFrames, bound)
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "Transport")
}

func TestSLOExperiment(t *testing.T) {
	r := SLOExp(tiny)
	if len(r.Rows) != 11 {
		t.Fatalf("matrix has %d rows, want 11", len(r.Rows))
	}
	if got, want := r.Rows[0].Key(), "epcgw/netsim/n3/r1000/const"; got != want {
		t.Fatalf("row key %q, want %q (SLO records are keyed on this)", got, want)
	}
	for _, row := range r.Rows {
		if row.Offered == 0 || row.Completed == 0 {
			t.Fatalf("row %s issued nothing: offered=%d done=%d", row.Key(), row.Offered, row.Completed)
		}
		if uint64(row.Offered) != row.Completed+row.Errors {
			t.Fatalf("row %s dropped slots: offered=%d done=%d err=%d — open loop must account for every arrival",
				row.Key(), row.Offered, row.Completed, row.Errors)
		}
		if !row.Pass {
			t.Errorf("row %s failed: %v (health: incidents=%d)", row.Key(), row.Violations, row.Health.Incidents)
		}
	}
	renders(t, func(b *bytes.Buffer) { r.Print(b) }, "SLO", "PASS", "tcp", "poisson", "ack_p99")
}
