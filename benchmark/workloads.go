package main

import (
	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
)

// Deployment and load model shared by every workload (see README.md, which
// also says why each workload is here).
const (
	nodes   = 3
	degree  = 3
	clients = 2 // closed loop, zero think time; client k drives worker k
)

// workload is one row of the benchmark: a generator, the fabric it runs
// over and what the run must show about the ownership protocol. Adding a
// workload is adding one entry to workloads.
type workload struct {
	name   string
	fabric cluster.FabricKind
	// moves says whether the workload is meant to move ownership: the run
	// is rejected when ownership.moves_per_op contradicts it.
	moves bool
	// gen builds the generator at the given population scale (1 = the
	// benchmark's population; tests run smaller).
	gen func(scale float64) generator
}

// generator is the part of bench.Smallbank and bench.TATP the benchmark uses.
type generator interface {
	Seed(bench.Seeder)
	MakeOp(node int, db dbapi.DB) bench.Op
}

const (
	smallbankAccounts = 5000 // per node, two objects each
	tatpSubscribers   = 2500 // per node, four objects each
)

func smallbank(remoteWriteFrac float64) func(float64) generator {
	return func(scale float64) generator {
		cfg := bench.DefaultSmallbankConfig(nodes)
		cfg.AccountsPerNode = scaled(smallbankAccounts, scale)
		cfg.RemoteWriteFrac = remoteWriteFrac
		return bench.NewSmallbank(cfg)
	}
}

func tatp(scale float64) generator {
	cfg := bench.DefaultTATPConfig(nodes)
	cfg.SubscribersPerNode = scaled(tatpSubscribers, scale)
	return bench.NewTATP(cfg)
}

func scaled(n int, scale float64) int {
	// Smallbank's hot set is the first 100 accounts of a partition.
	return max(int(float64(n)*scale), 200)
}

var workloads = []workload{
	{
		name:   "smallbank_local",
		fabric: cluster.FabricMem,
		gen:    smallbank(0),
	},
	{
		name:   "smallbank_remote",
		fabric: cluster.FabricMem,
		moves:  true,
		gen:    smallbank(0.20),
	},
	{
		name:   "tatp_read",
		fabric: cluster.FabricMem,
		gen:    tatp,
	},
	{
		name:   "smallbank_tcp",
		fabric: cluster.FabricTCP,
		gen:    smallbank(0),
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
