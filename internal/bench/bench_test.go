package bench

import (
	"math/rand"
	"testing"

	"zeus/internal/cluster"
	"zeus/internal/dbapi"
)

func smallZeus(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	opts := cluster.DefaultOptions(nodes)
	opts.Workers = 4
	c := cluster.New(opts)
	t.Cleanup(c.Close)
	return c
}

func TestIDSpaceHomeRoundTrip(t *testing.T) {
	s := IDSpace{Nodes: 6}
	seen := map[uint64]bool{}
	for kind := 0; kind < 4; kind++ {
		for idx := 0; idx < 50; idx++ {
			for home := 0; home < 6; home++ {
				obj := s.Obj(kind, idx, home)
				if s.Home(obj) != home {
					t.Fatalf("home(%d) = %d, want %d", obj, s.Home(obj), home)
				}
				if seen[obj] {
					t.Fatalf("duplicate id %d", obj)
				}
				seen[obj] = true
			}
		}
	}
}

func TestPadAndU64(t *testing.T) {
	b := Pad(77, 400)
	if len(b) != 400 || FromU64(b) != 77 {
		t.Fatalf("pad round trip: len=%d v=%d", len(b), FromU64(b))
	}
	if FromU64(Pad(5, 8)) != 5 || FromU64(nil) != 0 {
		t.Fatal("u64 round trip failed")
	}
	if len(Pad(1, 2)) != 8 {
		t.Fatal("pad must clamp to 8 bytes")
	}
}

func TestVoterVoteLimit(t *testing.T) {
	const nodes = 3
	c := smallZeus(t, nodes)
	cfg := DefaultVoterConfig(nodes)
	cfg.VotersPerNode = 5
	cfg.Contestants = 3
	cfg.VoteLimit = 2
	vt := NewVoter(cfg)
	vt.Seed(ZeusSeeder(c))
	op := vt.MakeOp(0, c.Node(0).DB())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if err := op(0, rng); err != nil {
			t.Fatal(err)
		}
	}
	// Every voter history is capped at the limit.
	for i := 0; i < 5; i++ {
		var got uint64
		err := dbapi.RunRO(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
			v, err := tx.Get(vt.VoterObj(0, i))
			if err != nil {
				return err
			}
			got = FromU64(v)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got > 2 {
			t.Fatalf("voter %d has %d votes, limit 2", i, got)
		}
	}
}

func TestVenmoAnalysisBands(t *testing.T) {
	a3 := NewVenmoGraph(DefaultVenmoConfig(3)).Analyze(200000)
	a6 := NewVenmoGraph(DefaultVenmoConfig(6)).Analyze(200000)
	f3, f6 := a3.RemoteFraction(), a6.RemoteFraction()
	// Paper: 0.7% at 3 nodes, 1.2% at 6 nodes. Accept the right band and
	// monotonic growth.
	if f3 < 0.002 || f3 > 0.02 {
		t.Fatalf("3-node remote fraction %.4f outside band", f3)
	}
	if f6 < f3 {
		t.Fatalf("remote fraction not monotonic: %.4f then %.4f", f3, f6)
	}
	if f6 > 0.03 {
		t.Fatalf("6-node remote fraction %.4f too high", f6)
	}
}

func TestVenmoGraphStructure(t *testing.T) {
	g := NewVenmoGraph(DefaultVenmoConfig(3))
	if g.Groups() == 0 {
		t.Fatal("no groups")
	}
	rng := rand.New(rand.NewSource(1))
	intra := 0
	const N = 10000
	for i := 0; i < N; i++ {
		a, b := g.SamplePayment(rng)
		if a == b {
			t.Fatal("self-payment")
		}
		if g.Home(a) == g.Home(b) {
			intra++
		}
	}
	if float64(intra)/N < 0.95 {
		t.Fatalf("clustering too weak: %.2f intra-node", float64(intra)/N)
	}
}

func TestTPCCAnalysis(t *testing.T) {
	p := DefaultTPCCParams(6)
	x := p.CrossNodeProb()
	if x <= 0.8 || x > 0.85 {
		t.Fatalf("cross-node prob %.3f unexpected", x)
	}
	std := p.RemoteFraction()
	if std < 0.05 || std > 0.15 {
		t.Fatalf("spec remote fraction %.4f outside plausible band", std)
	}
	cal := p.PaperCalibrated()
	if cal < 0.02 || cal > 0.03 {
		t.Fatalf("calibrated remote fraction %.4f should be ≈2.45%%", cal)
	}
	if (TPCCParams{Nodes: 1, WarehousesPerNode: 10}).CrossNodeProb() != 0 {
		t.Fatal("single node must have zero cross-node probability")
	}
}

func TestTable2Static(t *testing.T) {
	rows := Table2()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	names := map[string]BenchmarkInfo{}
	for _, r := range rows {
		names[r.Name] = r
	}
	if names["TATP"].ReadTxPercent != 80 || names["Smallbank"].ReadTxPercent != 15 {
		t.Fatal("read percentages wrong")
	}
	if names["Handovers"].Tables != 5 || names["Voter"].TxTypes != 1 {
		t.Fatal("table metadata wrong")
	}
}
