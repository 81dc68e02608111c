package bench_test

import (
	"testing"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
	"zeus/internal/loadgen"
	"zeus/internal/transport"
)

// The workloads under the load driver (an external test package: loadgen
// imports bench).

func smallZeus(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	opts := cluster.DefaultOptions(nodes)
	opts.Workers = 4
	c := cluster.New(opts)
	t.Cleanup(c.Close)
	return c
}

// run drives makeOp closed loop: two workers per db, ops requests each.
func run(dbs []dbapi.DB, ops int, seed int64, makeOp func(node int, db dbapi.DB) bench.Op) loadgen.Result {
	return loadgen.Run(loadgen.Config{
		Arrival: loadgen.ClosedLoop{Ops: ops}, Drivers: len(dbs), WorkersPerDriver: 2, Seed: seed,
	}, func(node int) bench.Op { return makeOp(node, dbs[node]) })
}

func TestSmallbankOnZeus(t *testing.T) {
	const nodes = 3
	c := smallZeus(t, nodes)
	cfg := bench.DefaultSmallbankConfig(nodes)
	cfg.AccountsPerNode = 200
	sb := bench.NewSmallbank(cfg)
	sb.Seed(bench.ZeusSeeder(c))
	res := run(bench.ZeusDBs(c, nodes), 50, 1, sb.MakeOp)
	if res.Completed == 0 {
		t.Fatal("no transactions committed")
	}
	if res.Errors > res.Completed/10 {
		t.Fatalf("too many failures: %d of %d", res.Errors, res.Completed)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestSmallbankOnBaselineSameSharding(t *testing.T) {
	const nodes = 3
	d := bench.NewBaselineDeployment(nodes, 3, transport.NewHub())
	defer d.Close()
	cfg := bench.DefaultSmallbankConfig(nodes)
	cfg.AccountsPerNode = 200
	sb := bench.NewSmallbank(cfg)
	sb.Seed(d.Seeder())
	res := run(d.DBs(), 50, 1, sb.MakeOp)
	if res.Completed == 0 {
		t.Fatal("no transactions committed on baseline")
	}
}

func TestSmallbankRemoteFractionDrivesOwnership(t *testing.T) {
	const nodes = 3
	c := smallZeus(t, nodes)
	cfg := bench.DefaultSmallbankConfig(nodes)
	cfg.AccountsPerNode = 500
	cfg.RemoteWriteFrac = 0.5
	sb := bench.NewSmallbank(cfg)
	sb.Seed(bench.ZeusSeeder(c))
	res := run(bench.ZeusDBs(c, nodes), 40, 2, sb.MakeOp)
	if res.Completed == 0 {
		t.Fatal("no ops")
	}
	var reqs uint64
	for i := 0; i < nodes; i++ {
		reqs += c.Node(i).OwnershipEngine().Stats().Succeeded
	}
	if reqs == 0 {
		t.Fatal("remote writes never triggered ownership changes")
	}
}

func TestTATPOnZeusReadHeavy(t *testing.T) {
	const nodes = 3
	c := smallZeus(t, nodes)
	cfg := bench.DefaultTATPConfig(nodes)
	cfg.SubscribersPerNode = 300
	tp := bench.NewTATP(cfg)
	tp.Seed(bench.ZeusSeeder(c))
	before := c.Messages()
	res := run(bench.ZeusDBs(c, nodes), 100, 3, tp.MakeOp)
	if res.Completed == 0 {
		t.Fatal("no transactions committed")
	}
	// 80% of TATP is read-only and local: messages per op must be well
	// below the write-tx replication cost (~2 messages per write × 2
	// followers). This is the §5.3 no-network-reads property.
	msgs := c.Messages() - before
	perOp := float64(msgs) / float64(res.Completed)
	if perOp > 4 {
		t.Fatalf("read-heavy TATP used %.1f messages/op", perOp)
	}
}

func TestVoterOnZeusAndMigration(t *testing.T) {
	const nodes = 3
	c := smallZeus(t, nodes)
	cfg := bench.DefaultVoterConfig(nodes)
	cfg.VotersPerNode = 300
	vt := bench.NewVoter(cfg)
	vt.Seed(bench.ZeusSeeder(c))
	res := run(bench.ZeusDBs(c, nodes), 60, 4, vt.MakeOp)
	if res.Completed == 0 {
		t.Fatal("no votes")
	}
	// Figure 10's core primitive: bulk-move node 0's voters to node 1.
	objs := vt.VoterObjects(0)[:100]
	mig := bench.MoveObjects(c.Node(1), objs)
	if mig.Moved != 100 || mig.Failed != 0 {
		t.Fatalf("migration: %+v", mig)
	}
	if mig.Rate() <= 0 {
		t.Fatal("migration rate not computed")
	}
}

func TestHandoversOnZeus(t *testing.T) {
	const nodes = 3
	c := smallZeus(t, nodes)
	cfg := bench.DefaultHandoverConfig(nodes)
	cfg.UsersPerNode = 200
	cfg.HandoverRatio = 0.05
	h := bench.NewHandovers(cfg)
	h.Seed(bench.ZeusSeeder(c))
	res := run(bench.ZeusDBs(c, nodes), 40, 5, h.MakeOp)
	if res.Completed == 0 {
		t.Fatal("no control-plane operations")
	}
}

func TestHandoversIdealNoOwnershipTraffic(t *testing.T) {
	const nodes = 3
	c := smallZeus(t, nodes)
	cfg := bench.DefaultHandoverConfig(nodes)
	cfg.UsersPerNode = 200
	cfg.HandoverRatio = 0.05
	cfg.Ideal = true
	h := bench.NewHandovers(cfg)
	h.Seed(bench.ZeusSeeder(c))
	res := run(bench.ZeusDBs(c, nodes), 40, 6, h.MakeOp)
	if res.Completed == 0 {
		t.Fatal("no ops")
	}
	for i := 0; i < nodes; i++ {
		if got := c.Node(i).OwnershipEngine().Stats().Requests; got != 0 {
			t.Fatalf("ideal mode issued %d ownership requests on node %d", got, i)
		}
	}
}
