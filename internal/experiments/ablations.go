package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
	"zeus/internal/netsim"
	"zeus/internal/wire"
)

// AblationResult collects the design-choice ablations DESIGN.md calls out:
// the pipelined reliable commit (§5.2), the replication-degree trade-off
// (§3.1), and fault tolerance of the messaging layer (§3.1).
type AblationResult struct {
	// Pipelining: same write stream with and without waiting for
	// replication per transaction (the paper's core programmability and
	// performance claim — distributed commit blocks, Zeus does not).
	// Unlike the single-run sweeps below, this pair is measured best-of-3
	// with an op floor of 200/worker (both modes identically), because the
	// Pipelined/Blocking *ratio* is asserted by tests and single short
	// runs measure scheduler noise; compare the two against each other,
	// not against DegreeTps/LossTps.
	PipelinedTps float64
	BlockingTps  float64
	// Replication degree sweep (degree → tps).
	DegreeTps map[int]float64
	// Loss-rate sweep over the simulated fabric (loss % → tps); correct
	// completion under loss demonstrates the reliable messaging layer.
	LossTps map[int]float64
}

// Ablations runs all three studies.
func Ablations(s Scale) AblationResult {
	res := AblationResult{DegreeTps: map[int]float64{}, LossTps: map[int]float64{}}

	// --- Pipelining on/off ---
	// Short streams measure goroutine startup more than the protocols, so
	// the pair gets an op floor and the best of three runs each — the
	// standard de-noising for a throughput comparison on a shared host.
	{
		ps := s
		if ps.OpsPerWorker < 200 {
			ps.OpsPerWorker = 200
		}
		for i := 0; i < 3; i++ {
			c := newZeus(3, ps.Workers)
			if tps := ablationWriteStream(c, ps, false); tps > res.PipelinedTps {
				res.PipelinedTps = tps
			}
			c.Close()
			c2 := newZeus(3, ps.Workers)
			if tps := ablationWriteStream(c2, ps, true); tps > res.BlockingTps {
				res.BlockingTps = tps
			}
			c2.Close()
		}
	}

	// --- Replication degree ---
	for _, degree := range []int{1, 2, 3} {
		c := newZeusDegree(3, degree, s.Workers)
		res.DegreeTps[degree] = ablationWriteStream(c, s, false)
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
		res.LossTps[lossPct] = ablationWriteStream(c, small, false)
		c.Close()
	}
	return res
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

// Print renders the ablations.
func (r AblationResult) Print(w io.Writer) {
	printHeader(w, "Ablations: pipelining, replication degree, loss tolerance")
	speedup := 0.0
	if r.BlockingTps > 0 {
		speedup = r.PipelinedTps / r.BlockingTps
	}
	fmt.Fprintf(w, "  pipelined commit : %s\n", fmtTps(r.PipelinedTps))
	fmt.Fprintf(w, "  blocking commit  : %s  (pipelining speedup %.1fx)\n", fmtTps(r.BlockingTps), speedup)
	for _, d := range []int{1, 2, 3} {
		fmt.Fprintf(w, "  replication degree %d: %s\n", d, fmtTps(r.DegreeTps[d]))
	}
	for _, l := range []int{0, 1, 5} {
		fmt.Fprintf(w, "  %d%% message loss: %s (all transactions complete)\n", l, fmtTps(r.LossTps[l]))
	}
}
