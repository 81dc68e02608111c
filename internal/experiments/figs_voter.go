package experiments

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
	"zeus/internal/obs"
	"zeus/internal/wire"
)

// latCols are the columns latCells fills.
var latCols = []string{"p50", "p99", "p999", "max"}

// latCells are a latency histogram's quantiles, by the estimator the obs
// registry renders and the load harness gates on.
func latCells(s obs.HistSnapshot) []any {
	return []any{time.Duration(s.Quantile(0.50)), time.Duration(s.Quantile(0.99)),
		time.Duration(s.Quantile(0.999)), time.Duration(s.Max())}
}

// timeline renders a run's per-interval completions on each node as notes.
func timeline(interval time.Duration, samples [][]uint64) []string {
	notes := []string{fmt.Sprintf("committed votes per node every %v:", interval)}
	for i, row := range samples {
		notes = append(notes, fmt.Sprintf(" t=%-6s node0=%-8d node1=%-8d node2=%-8d",
			time.Duration(i+1)*interval, row[0], row[1], row[2]))
	}
	return notes
}

// voterExperiment is the shared machinery of Figures 10–12.
type voterExperiment struct {
	c      *cluster.Cluster
	nodes  int
	voters int
	// location: voters with index < progress are at dst; others at src.
	src, dst atomic.Int32
	progress atomic.Int64
	// votes is the latency of committed votes. A node the voters have left
	// polls for their return, and the load driver's Service histogram counts
	// each poll as a (failed) request; this one times the transaction alone.
	votes obs.Histogram
}

func newVoterExperiment(s Scale, nodes int, onLat func(time.Duration)) *voterExperiment {
	opts := cluster.DefaultOptions(nodes)
	opts.Workers = s.Workers
	opts.OnOwnershipLatency = onLat
	c := cluster.New(opts)
	v := &voterExperiment{c: c, nodes: nodes, voters: s.VotersPerNode}
	// All voters start on node 0 (the paper's setup).
	for i := 0; i < v.voters; i++ {
		c.SeedAt(wire.ObjectID(v.voterObj(i)), 0, bench.Pad(0, 32))
	}
	// One contestant-total object per (node, worker) pair so vote totals
	// never serialize across workers.
	for n := 0; n < nodes; n++ {
		for w := 0; w < s.Workers; w++ {
			c.SeedAt(wire.ObjectID(v.contestantObj(n, w, s.Workers)), wire.NodeID(n), bench.Pad(0, 32))
		}
	}
	return v
}

func (v *voterExperiment) voterObj(i int) uint64 { return 1_000_000 + uint64(i) }

func (v *voterExperiment) contestantObj(node, worker, workers int) uint64 {
	return 500_000 + uint64(node*workers+worker)
}

// pickVoter returns a voter index currently located at node, or -1.
func (v *voterExperiment) pickVoter(node int, rng *rand.Rand) int {
	p := int(v.progress.Load())
	src, dst := int(v.src.Load()), int(v.dst.Load())
	switch {
	case node == dst && p > 0:
		return rng.Intn(p)
	case node == src && p < v.voters:
		return p + rng.Intn(v.voters-p)
	default:
		return -1
	}
}

// makeOp builds the vote operation for one node: vote for a voter currently
// located here plus this worker's contestant total.
func (v *voterExperiment) makeOp(workers int) func(node int, db dbapi.DB) bench.Op {
	votes := &v.votes
	return func(node int, db dbapi.DB) bench.Op {
		return func(worker int, rng *rand.Rand) error {
			i := v.pickVoter(node, rng)
			if i < 0 {
				// No voters here right now (pre/post migration):
				// idle briefly; not counted as a committed vote.
				time.Sleep(200 * time.Microsecond)
				return dbapi.ErrConflict
			}
			voter := v.voterObj(i)
			contestant := v.contestantObj(node, worker, workers)
			t0 := time.Now()
			err := dbapi.Run(db, worker, func(tx dbapi.Txn) error {
				hv, err := tx.Get(voter)
				if err != nil {
					return err
				}
				cv, err := tx.Get(contestant)
				if err != nil {
					return err
				}
				if err := tx.Set(voter, bench.Pad(bench.FromU64(hv)+1, 32)); err != nil {
					return err
				}
				return tx.Set(contestant, bench.Pad(bench.FromU64(cv)+1, 32))
			})
			if err == nil {
				votes.RecordSince(t0)
			}
			return err
		}
	}
}

// moveAll migrates every voter object to dstNode with one mover worker,
// updating progress so the load follows; returns the migration rate.
func (v *voterExperiment) moveAll(dstNode int) (int, float64) {
	v.dst.Store(int32(dstNode))
	v.progress.Store(0)
	dst := v.c.Node(dstNode)
	start := time.Now()
	moved := 0
	for i := 0; i < v.voters; i++ {
		if err := dst.OwnershipEngine().AcquireOwnership(wire.ObjectID(v.voterObj(i))); err == nil {
			moved++
		}
		v.progress.Store(int64(i + 1))
	}
	elapsed := time.Since(start)
	v.src.Store(int32(dstNode))
	rate := float64(moved) / elapsed.Seconds()
	return moved, rate
}

// Fig10 is the Voter bulk migration (§8.4, Figure 10): a voter population
// entirely on node 0, moved wholesale to node 1 and then to node 2 by one
// mover worker while the vote load keeps running; votes follow the objects.
// Vote latency is of committed votes alone.
func Fig10(s Scale) Table {
	v := newVoterExperiment(s, 3, nil)
	defer v.c.Close()
	var moved int
	var rate float64
	moverDone := make(chan struct{})
	go func() {
		defer close(moverDone)
		// Let the load warm up, then move 0→1, then 1→2.
		time.Sleep(s.Duration / 4)
		m1, r1 := v.moveAll(1)
		time.Sleep(s.Duration / 8)
		m2, r2 := v.moveAll(2)
		moved = m1 + m2
		rate = (r1 + r2) / 2
	}()
	res := timedRun(s, 31, bench.ZeusDBs(v.c, v.nodes), v.makeOp(s.Workers))
	<-moverDone // migrations may outlast the load window
	t := Table{
		Title: "Figure 10: Voter — moving all voter objects across nodes under load",
		Paper: "25k obj/s per mover worker",
		Cols:  append([]string{"voters", "moved", "move obj/s", "votes"}, latCols...),
		Notes: timeline(s.Interval, res.Samples),
	}
	t.add(append([]any{v.voters, moved, rate, res.Completed}, latCells(v.votes.Snapshot())...)...)
	return t
}

// Fig11 is the concurrent migration (§8.4, Figure 11): a hot block of voters
// migrates, moved by one worker, while the rest of the system sustains its
// load; the migration must not dent the background throughput. Vote latency
// is over both phases.
func Fig11(s Scale) Table {
	// Background: a plain voter workload across 3 nodes.
	c := newZeus(3, 3, s.Workers)
	defer c.Close()
	cfg := bench.DefaultVoterConfig(3)
	cfg.VotersPerNode = s.VotersPerNode
	vt := bench.NewVoter(cfg)
	vt.Seed(bench.ZeusSeeder(c))
	// Hot set: a dedicated block of voters on node 0, moved by one worker.
	hot := s.VotersPerNode / 10
	if hot < 100 {
		hot = 100
	}
	hotObjs := make([]uint64, hot)
	for i := range hotObjs {
		hotObjs[i] = 2_000_000 + uint64(i)
		c.SeedAt(wire.ObjectID(hotObjs[i]), 0, bench.Pad(0, 32))
	}

	var hotMoved int
	var hotRate float64
	var migrating atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(s.Duration / 4)
		migrating.Store(true)
		start := time.Now()
		for _, dst := range []int{1, 2} {
			hotMoved += bench.MoveObjects(c.Node(dst), hotObjs).Moved
		}
		hotRate = float64(hotMoved) / time.Since(start).Seconds()
		migrating.Store(false)
	}()

	var duringOps, duringNs, beforeOps, beforeNs atomic.Int64
	makeOp := func(node int, db dbapi.DB) bench.Op {
		inner := vt.MakeOp(node, db)
		return func(worker int, rng *rand.Rand) error {
			t0 := time.Now()
			err := inner(worker, rng)
			dt := time.Since(t0).Nanoseconds()
			if err == nil {
				if migrating.Load() {
					duringOps.Add(1)
					duringNs.Add(dt)
				} else {
					beforeOps.Add(1)
					beforeNs.Add(dt)
				}
			}
			return err
		}
	}
	res := timedRun(s, 32, bench.ZeusDBs(c, 3), makeOp)
	<-done

	// Per-op service rate (ops per busy-second): comparable across phases
	// of different lengths; a migration-induced dent would show here.
	tput := func(ops, ns int64) float64 {
		if ns == 0 {
			return 0
		}
		return float64(ops) / (float64(ns) / 1e9)
	}
	t := Table{
		Title: "Figure 11: Voter — votes concurrent with hot-object migration",
		Paper: "25k obj/s per mover worker; background throughput undented",
		Cols:  append([]string{"hot moved", "move obj/s", "before op/s", "during op/s"}, latCols...),
		Notes: timeline(s.Interval, res.Samples),
	}
	t.add(append([]any{hotMoved, hotRate, tput(beforeOps.Load(), beforeNs.Load()),
		tput(duringOps.Load(), duringNs.Load())}, latCells(res.Service)...)...)
	return t
}

// Fig12 is the CDF of ownership request latency (§8.4, Figure 12), harvested
// during a bulk migration under load (the paper's "moving 100K hot voters"
// case) into the log-linear obs histogram every latency artefact uses
// (quantiles are bucket upper bounds, relative error ≤ 1/4).
func Fig12(s Scale) Table {
	ownLat := &obs.Histogram{}
	v := newVoterExperiment(s, 3, func(d time.Duration) {
		ownLat.Record(uint64(d))
	})
	defer v.c.Close()
	go func() {
		time.Sleep(s.Duration / 4)
		v.moveAll(1)
	}()
	timedRun(s, 33, bench.ZeusDBs(v.c, v.nodes), v.makeOp(s.Workers))
	snap := ownLat.Snapshot()
	mean := time.Duration(ratio(float64(snap.Sum), float64(snap.Count)))
	t := Table{
		Title: "Figure 12: CDF of ownership request latency",
		Paper: "mean 17–29 µs, p99.9 36–83 µs on 40Gb DPDK hardware",
		Cols:  append([]string{"samples", "mean"}, latCols...),
	}
	t.add(append([]any{snap.Count, mean}, latCells(snap)...)...)
	return t
}
