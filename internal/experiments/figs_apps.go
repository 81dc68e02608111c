package experiments

import (
	"fmt"
	"io"
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

// Fig13Result is the packet-gateway control-plane comparison (§8.5,
// Figure 13): throughput of the four datastore configurations.
type Fig13Result struct {
	LocalTps       float64 // local memory, no replication
	BlockingTps    float64 // Redis-like blocking store (remote RPC per access)
	Zeus1ActiveTps float64 // Zeus, 1 active + 1 passive replica
	Zeus2ActiveTps float64 // Zeus, 2 active nodes (paper: +60 %)
}

// Fig13 runs the gateway on all four backends.
func Fig13(s Scale) Fig13Result {
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
	c1 := newZeusDegree(2, 2, s.Workers)
	zcfg := epcgw.DefaultConfig(0, 2)
	zcfg.Users = users
	zg := epcgw.New(zcfg, c1.Node(0).DB())
	zg.SeedObjects(bench.ZeusSeeder(c1))
	zeus1Tps := run([]*epcgw.Gateway{zg})
	c1.Close()

	// 4. Zeus, 2 active nodes, each the other's replica.
	c2 := newZeusDegree(2, 2, s.Workers)
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

	return Fig13Result{
		LocalTps: localTps, BlockingTps: blockingTps,
		Zeus1ActiveTps: zeus1Tps, Zeus2ActiveTps: zeus2Tps,
	}
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

// Print renders the comparison.
func (r Fig13Result) Print(w io.Writer) {
	printHeader(w, "Figure 13: cellular packet gateway control plane")
	fmt.Fprintf(w, "  local memory        : %s\n", fmtTps(r.LocalTps))
	fmt.Fprintf(w, "  blocking store      : %s   (paper: well below local)\n", fmtTps(r.BlockingTps))
	fmt.Fprintf(w, "  Zeus 1 active+1 pass: %s   (paper: ≈ local memory)\n", fmtTps(r.Zeus1ActiveTps))
	fmt.Fprintf(w, "  Zeus 2 active       : %s   (paper: ≈ +60%% over 1 active)\n", fmtTps(r.Zeus2ActiveTps))
}

// Fig14Result is the SCTP port measurement (§8.5, Figure 14): goodput with
// and without replication for two packet sizes.
type Fig14Result struct {
	Rows []Fig14Row
}

// Fig14Row is one packet-size group.
type Fig14Row struct {
	PacketBytes int
	NoReplMbps  float64
	ZeusMbps    float64
}

// Fig14 transfers a single flow through the SCTP-like association.
func Fig14(s Scale) Fig14Result {
	var rows []Fig14Row
	for _, pkt := range []int{150, 1440} {
		row := Fig14Row{PacketBytes: pkt}
		for _, degree := range []int{1, 2} {
			c := newZeusDegree(2, degree, s.Workers)
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
			mbps := float64(res.Bytes) * 8 / elapsed.Seconds() / 1e6
			if degree == 1 {
				row.NoReplMbps = mbps
			} else {
				row.ZeusMbps = mbps
			}
		}
		rows = append(rows, row)
	}
	return Fig14Result{Rows: rows}
}

// Print renders the comparison.
func (r Fig14Result) Print(w io.Writer) {
	printHeader(w, "Figure 14: SCTP throughput (single flow, per-packet state transactions)")
	for _, row := range r.Rows {
		drop := 0.0
		if row.NoReplMbps > 0 {
			drop = 100 * (row.NoReplMbps - row.ZeusMbps) / row.NoReplMbps
		}
		fmt.Fprintf(w, "  %4dB packets: no-repl %8.1f Mbps   zeus %8.1f Mbps   (drop %.0f%%; paper: ~40%% @1440B)\n",
			row.PacketBytes, row.NoReplMbps, row.ZeusMbps, drop)
	}
}

// Fig15Result is the Nginx-style scale-out/in timeline (§8.5, Figure 15).
type Fig15Result struct {
	// Phases: rate with 1 proxy, with 2 proxies (scale-out), back to 1.
	OneProxyTps  float64
	TwoProxyTps  float64
	BackToOneTps float64
	Misses       uint64
}

// Fig15 measures session-persistent HTTP routing through Zeus while scaling
// a second proxy node out and back in.
func Fig15(s Scale) Fig15Result {
	c := newZeusDegree(2, 2, s.Workers)
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

	third := s.Duration / 3
	one := drive([]*httplb.Proxy{p0}, third)
	two := drive([]*httplb.Proxy{p0, p1}, third) // scale-out
	back := drive([]*httplb.Proxy{p0}, third)    // scale-in
	_, misses := p0.Stats()
	return Fig15Result{OneProxyTps: one, TwoProxyTps: two, BackToOneTps: back, Misses: misses}
}

// Print renders the phases.
func (r Fig15Result) Print(w io.Writer) {
	printHeader(w, "Figure 15: Nginx-style session persistence under scale-out/in")
	fmt.Fprintf(w, "  1 proxy : %s\n", fmtTps(r.OneProxyTps))
	fmt.Fprintf(w, "  2 proxies (scale-out): %s\n", fmtTps(r.TwoProxyTps))
	fmt.Fprintf(w, "  1 proxy (scale-in)  : %s\n", fmtTps(r.BackToOneTps))
	fmt.Fprintf(w, "  assignment misses=%d (sessions assigned once, sticky after)\n", r.Misses)
}
