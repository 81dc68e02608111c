package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"zeus/internal/apps/epcgw"
	"zeus/internal/apps/httplb"
	"zeus/internal/apps/sctpsim"
	"zeus/internal/baseline"
	"zeus/internal/bench"
	"zeus/internal/loadgen"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// Fig13 is the packet-gateway control-plane comparison (§8.5, Figure 13):
// the gateway's throughput on each of four datastore configurations.
func Fig13(s Scale) Table {
	users := s.UsersPerNode

	// One single-threaded worker per gateway, as the real gateway runs, each
	// signalling operation a service request or a release for a random
	// subscriber.
	run := func(gws []*epcgw.Gateway) float64 {
		ops := make([]bench.Op, len(gws))
		for i, g := range gws {
			ops[i] = func(worker int, rng *rand.Rand) error {
				return g.Step(worker, rng.Intn(users), rng.Int())
			}
		}
		return closedLoop(loadgen.Config{Arrival: loadgen.ClosedLoop{Ops: s.OpsPerWorker}, Seed: 13}, 1, ops).Throughput()
	}

	// 1. Local memory: one gateway.
	ldb := epcgw.NewLocalDB()
	lcfg := epcgw.DefaultConfig(0, 1)
	lcfg.Users = users
	lg := epcgw.New(lcfg, ldb)
	lg.SeedObjects(func(obj uint64, home int, data []byte) { ldb.Seed(obj, data) })
	localTps := run([]*epcgw.Gateway{lg})

	// 2. Blocking store.
	bg, _, closeStore := newBlockingStore(users)
	blockingTps := run([]*epcgw.Gateway{bg})
	closeStore()

	// 3. Zeus, 1 active + 1 passive.
	c1 := newZeus(2, 2, s.Workers)
	zcfg := epcgw.DefaultConfig(0, 2)
	zcfg.Users = users
	zg := epcgw.New(zcfg, c1.Node(0).DB())
	zg.SeedObjects(bench.ZeusSeeder(c1))
	zeus1Tps := run([]*epcgw.Gateway{zg})
	c1.Close()

	// 4. Zeus, 2 active nodes, each the other's replica.
	c2 := newZeus(2, 2, s.Workers)
	var gws []*epcgw.Gateway
	for n := 0; n < 2; n++ {
		cfg := epcgw.DefaultConfig(n, 2)
		cfg.Users = users
		g := epcgw.New(cfg, c2.Node(n).DB())
		g.SeedObjects(bench.ZeusSeeder(c2))
		gws = append(gws, g)
	}
	zeus2Tps := run(gws)
	c2.Close()

	t := Table{
		Title: "Figure 13: cellular packet gateway control plane",
		Cols:  []string{"datastore", "tx/s", "paper"},
	}
	t.add("local memory", localTps, "")
	t.add("blocking store", blockingTps, "well below local")
	t.add("Zeus 1 active + 1 passive", zeus1Tps, "≈ local memory")
	t.add("Zeus 2 active", zeus2Tps, "≈ +60 % over 1 active")
	return t
}

// newBlockingStore builds Figure 13's Redis-like blocking store: a single
// baseline server, node 0, is the primary of every context, and the gateway
// runs on a second node of the simulated fabric, so every access is a
// blocking RPC with real round-trip latency, like the paper's Redis. The
// returned func releases the fabric.
func newBlockingStore(users int) (*epcgw.Gateway, *baseline.Node, func()) {
	fab := transport.NewSimFabric(simNetConfig())
	bcfg := baseline.Config{Nodes: 1, Degree: 1}
	server := baseline.NewNode(0, fab.Node(0), bcfg)
	gcfg := epcgw.DefaultConfig(0, 1)
	gcfg.Users = users
	gw := epcgw.New(gcfg, baseline.NewNode(1, fab.Node(1), bcfg))
	gw.SeedObjects(func(obj uint64, home int, data []byte) {
		server.Seed(wire.ObjectID(obj), 1, data)
	})
	return gw, server, fab.Close
}

// Fig14 is the SCTP port measurement (§8.5, Figure 14): the goodput of a
// single flow through the SCTP-like association, without replication and
// with Zeus, for two packet sizes.
func Fig14(s Scale) Table {
	t := Table{
		Title: "Figure 14: SCTP throughput (single flow, per-packet state transactions)",
		Paper: "replication costs ~40 % at 1440 B",
		Cols:  []string{"packet B", "no-repl Mbps", "zeus Mbps", "drop %"},
	}
	for _, pkt := range []int{150, 1440} {
		var mbps [2]float64 // by degree - 1
		for _, degree := range []int{1, 2} {
			c := newZeus(2, degree, s.Workers)
			cfg := sctpsim.DefaultConfig()
			c.SeedAt(wire.ObjectID(1), 0, sctpsim.InitialState(cfg).Encode(cfg.StateSize))
			a := sctpsim.New(cfg, c.Node(0).DB(), 1, 0)
			start := time.Now()
			res, err := a.Transfer(s.Packets, pkt)
			elapsed := time.Since(start)
			c.Close()
			if err != nil {
				continue
			}
			mbps[degree-1] = float64(res.Bytes) * 8 / elapsed.Seconds() / 1e6
		}
		t.add(pkt, mbps[0], mbps[1], 100*ratio(mbps[0]-mbps[1], mbps[0]))
	}
	return t
}

// Fig15 is the Nginx-style timeline (§8.5, Figure 15): session-persistent
// HTTP routing through Zeus while a second proxy node scales out and back in.
func Fig15(s Scale) Table {
	c := newZeus(2, 2, s.Workers)
	defer c.Close()

	cfg := httplb.DefaultConfig(0, 2)
	cfg.Sessions = s.Sessions
	p0 := httplb.New(cfg, c.Node(0).DB())
	p0.SeedObjects(bench.ZeusSeeder(c))
	p1 := httplb.New(cfg, c.Node(1).DB())

	drive := func(proxies []*httplb.Proxy, d time.Duration) float64 {
		ops := make([]bench.Op, len(proxies))
		for i, p := range proxies {
			ops[i] = func(worker int, rng *rand.Rand) error {
				_, err := p.Handle(worker, rng.Intn(s.Sessions), rng)
				return err
			}
		}
		return closedLoop(loadgen.Config{Arrival: loadgen.ClosedLoop{}, Duration: d, Seed: 15}, s.Workers, ops).Throughput()
	}

	t := Table{
		Title: "Figure 15: Nginx-style session persistence under scale-out/in",
		Cols:  []string{"phase", "proxies", "tx/s"},
	}
	third := s.Duration / 3
	t.add("one proxy", 1, drive([]*httplb.Proxy{p0}, third))
	t.add("scale-out", 2, drive([]*httplb.Proxy{p0, p1}, third))
	t.add("scale-in", 1, drive([]*httplb.Proxy{p0}, third))
	_, misses := p0.Stats()
	t.Notes = []string{fmt.Sprintf("assignment misses=%d (sessions assigned once, sticky after)", misses)}
	return t
}
