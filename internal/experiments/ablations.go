package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
	"zeus/internal/netsim"
	"zeus/internal/wire"
)

// Ablations runs the design-choice ablations DESIGN.md calls out: the
// pipelined reliable commit (§5.2) against waiting for replication after
// every transaction (the paper's core programmability and performance claim:
// distributed commit blocks, Zeus does not), the replication degree (§3.1),
// and message loss (§3.1), whose correct completion demonstrates the
// reliable messaging layer.
//
// Unlike the single-run rows, the pipelining pair is the best of three runs
// with a floor of 200 ops a worker (both modes alike): its ratio is checked,
// and short streams measure goroutine startup and scheduler noise more than
// the protocols. Compare the two with each other, not with the other rows.
func Ablations(s Scale) Table {
	t := Table{
		Title: "Ablations: pipelining, replication degree, loss tolerance",
		Cols:  []string{"configuration", "tx/s"},
	}

	// --- Pipelining on/off ---
	ps := s
	if ps.OpsPerWorker < 200 {
		ps.OpsPerWorker = 200
	}
	var pipelined, blocking float64
	for i := 0; i < 3; i++ {
		c := newZeus(3, 3, ps.Workers)
		pipelined = max(pipelined, ablationWriteStream(c, ps, false))
		c.Close()
		c2 := newZeus(3, 3, ps.Workers)
		blocking = max(blocking, ablationWriteStream(c2, ps, true))
		c2.Close()
	}
	t.add("pipelined commit", pipelined)
	t.add("blocking commit", blocking)
	if blocking > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("pipelining speedup %.1fx", pipelined/blocking))
	}

	// --- Replication degree ---
	for _, degree := range []int{1, 2, 3} {
		c := newZeus(3, degree, s.Workers)
		t.add(fmt.Sprintf("replication degree %d", degree), ablationWriteStream(c, s, false))
		c.Close()
	}

	// --- Loss tolerance ---
	for _, lossPct := range []int{0, 1, 5} {
		opts := cluster.DefaultOptions(3)
		opts.Workers = 2
		opts.Fabric = cluster.FabricSim
		opts.Net = netsim.Config{
			Seed:       int64(lossPct) + 1,
			MinLatency: 5 * time.Microsecond,
			MaxLatency: 30 * time.Microsecond,
			LossProb:   float64(lossPct) / 100,
			DupProb:    float64(lossPct) / 200,
			InboxDepth: 1 << 14,
		}
		c := cluster.New(opts)
		small := s
		small.OpsPerWorker = s.OpsPerWorker / 4
		if small.OpsPerWorker < 20 {
			small.OpsPerWorker = 20
		}
		small.Workers = 2
		t.add(fmt.Sprintf("%d%% message loss", lossPct), ablationWriteStream(c, small, false))
		c.Close()
	}
	t.Notes = append(t.Notes, "every transaction completes under loss")
	return t
}

// ablationWriteStream runs a per-worker private-object write stream — pure
// reliable-commit throughput with no contention — optionally waiting for
// replication after every transaction (blocking mode).
func ablationWriteStream(c *cluster.Cluster, s Scale, blocking bool) float64 {
	nodes := c.Nodes()
	// One private object per (node, worker).
	obj := func(node, worker int) uint64 {
		return 3_000_000 + uint64(node*1000+worker)
	}
	for n := 0; n < nodes; n++ {
		for w := 0; w < s.Workers; w++ {
			c.SeedAt(wire.ObjectID(obj(n, w)), wire.NodeID(n), bench.Pad(0, 128))
		}
	}
	res := countedRun(s, 41, bench.ZeusDBs(c, nodes), func(node int, db dbapi.DB) bench.Op {
		zn := c.Node(node)
		return func(worker int, rng *rand.Rand) error {
			o := obj(node, worker)
			tx := zn.BeginOn(worker)
			v, err := tx.Get(o)
			if err != nil {
				tx.Abort()
				return err
			}
			if err := tx.Set(o, bench.Pad(bench.FromU64(v)+1, 128)); err != nil {
				tx.Abort()
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
			if blocking {
				// No-pipelining ablation: wait for the reliable
				// commit like a conventional datastore would.
				if d := tx.Durable(); d != nil {
					<-d
				}
			}
			return nil
		}
	})
	return res.Throughput()
}
