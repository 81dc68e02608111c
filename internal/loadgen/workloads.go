package loadgen

import (
	"math/rand"

	"zeus/internal/apps/epcgw"
	"zeus/internal/apps/httplb"
	"zeus/internal/apps/sctpsim"
	"zeus/internal/bench"
	"zeus/internal/dbapi"
)

// clients is the simulated client population an application op draws its
// client from (the paper's "millions of users" framing at simulation scale).
const clients = 1_000_000

// Workload binds a real application workload to the harness: how to seed its
// objects and how a driver pinned to a node issues one request.
type Workload struct {
	// Name keys run summaries and SLO records.
	Name string
	// Seed installs the workload's initial objects.
	Seed func(seed bench.Seeder)
	// MakeOp returns the op a driver bound to the given node executes.
	MakeOp func(node int, db dbapi.DB) bench.Op
}

// EPCGW is the packet-gateway control plane (§8.5, Figure 13): each arrival
// is one signalling operation — the subscriber's parity of service request
// vs release — against the gateway homed at the driver's node.
func EPCGW(nodes int) Workload {
	cfgFor := func(node int) epcgw.Config { return epcgw.DefaultConfig(node, nodes) }
	return Workload{
		Name: "epcgw",
		Seed: func(seed bench.Seeder) {
			for n := 0; n < nodes; n++ {
				epcgw.New(cfgFor(n), nil).SeedObjects(seed)
			}
		},
		MakeOp: func(node int, db dbapi.DB) bench.Op {
			cfg := cfgFor(node)
			g := epcgw.New(cfg, db)
			return func(worker int, rng *rand.Rand) error {
				client := rng.Intn(clients)
				return g.Step(worker, client%cfg.Users, client)
			}
		},
	}
}

// HTTPLB is the session-persistence HTTP load balancer (§8.5, Figure 15):
// each arrival is one proxied request — a sticky read-only lookup, with a
// replicated write on assignment miss.
func HTTPLB(nodes int) Workload {
	cfgFor := func(node int) httplb.Config { return httplb.DefaultConfig(node, nodes) }
	return Workload{
		Name: "httplb",
		Seed: func(seed bench.Seeder) {
			for n := 0; n < nodes; n++ {
				httplb.New(cfgFor(n), nil).SeedObjects(seed)
			}
		},
		MakeOp: func(node int, db dbapi.DB) bench.Op {
			cfg := cfgFor(node)
			p := httplb.New(cfg, db)
			return func(worker int, rng *rand.Rand) error {
				_, err := p.Handle(worker, rng.Intn(clients)%cfg.Sessions, rng)
				return err
			}
		},
	}
}

// SCTP is the replicated SCTP-like transport (§8.5, Figure 14): each arrival
// is one packet event — a DATA transmission, or the SACK that reopens a full
// congestion window — on a per-(node,worker) association, each a write
// transaction over the ~6.8 KB association state.
//
// assocsPerNode must be at least the harness's workers-per-driver times the
// drivers sharing a node, so concurrent workers do not contend on one
// association's state object (they would still be correct, just all
// conflicts).
func SCTP(nodes, assocsPerNode int) Workload {
	if assocsPerNode <= 0 {
		assocsPerNode = 8
	}
	cfg := sctpsim.DefaultConfig()
	assocObj := func(node, a int) uint64 {
		return 9_000_000 + uint64(node*assocsPerNode+a)
	}
	return Workload{
		Name: "sctp",
		Seed: func(seed bench.Seeder) {
			init := sctpsim.InitialState(cfg).Encode(cfg.StateSize)
			for n := 0; n < nodes; n++ {
				for a := 0; a < assocsPerNode; a++ {
					seed(assocObj(n, a), n, init)
				}
			}
		},
		MakeOp: func(node int, db dbapi.DB) bench.Op {
			return func(worker int, rng *rand.Rand) error {
				a := sctpsim.New(cfg, db, assocObj(node, worker%assocsPerNode), worker)
				return a.PacketEvent(1200)
			}
		},
	}
}

// Handover is the cellular handover benchmark (§8.1) — the gateway example's
// mobility pattern: service requests, releases and two-transaction 3GPP
// handovers whose remote moves trigger ownership migration.
func Handover(nodes int) Workload {
	h := bench.NewHandovers(bench.DefaultHandoverConfig(nodes))
	return Workload{
		Name:   "handover",
		Seed:   h.Seed,
		MakeOp: h.MakeOp,
	}
}
