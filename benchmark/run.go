package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
)

// runConfig is one run of one workload.
type runConfig struct {
	w    workload
	seed int64
	// scale shrinks the population (tests); 1 in every real run.
	scale   float64
	setups  int // set-up is timed this many times; the median is reported
	warmup  time.Duration
	window  time.Duration
	windows int
	// tracer, when set, decorates the DBs and is switched on for the
	// odd-numbered windows; the even ones stay untraced and give the
	// overhead reference.
	tracer *tracer
}

// Shortest run the stationarity check applies to; anything shorter is a
// smoke run.
const minGatedWindows = 15

// snapshot holds the cumulative counters read at both ends of the measured
// interval.
type snapshot struct {
	cpu     time.Duration // process user+sys
	mallocs uint64

	aborts                    uint64
	moves, ownReqs, ownNacks  uint64
	ownTimeouts               uint64
	invals, cmtBytes, resends uint64
	msgs, netBytes            uint64
	epoch                     uint64
	runtime                   runtimeSample
}

func takeSnapshot(c *cluster.Cluster) snapshot {
	s := snapshot{cpu: processCPU(), mallocs: heapObjectsAllocated()}
	for i := 0; i < nodes; i++ {
		n := c.Node(i)
		st := n.Stats()
		s.aborts += st.Aborts + st.ROAborts
		os := n.OwnershipEngine().Stats()
		s.ownReqs += os.Requests
		s.ownNacks += os.Nacks
		s.ownTimeouts += os.Timeouts
		cs := n.CommitEngine().Stats()
		s.invals += cs.Invalidations
		s.cmtBytes += cs.BytesReplicated
		s.resends += cs.Resends
	}
	s.moves = ownershipMoves(c)
	s.msgs, s.netBytes = c.Messages(), c.Bytes()
	s.epoch = uint64(c.Manager().View().Epoch)
	s.runtime = readRuntime()
	return s
}

// processCPU returns the user+system CPU time the process has used so far:
// clients, owners, followers, transports and the garbage collector together.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ownershipMoves is the number of ownership acquisitions the cluster has
// completed so far.
func ownershipMoves(c *cluster.Cluster) uint64 {
	var n uint64
	for i := 0; i < nodes; i++ {
		n += c.Node(i).OwnershipEngine().Stats().Succeeded
	}
	return n
}

// committedTxns is the number of write and read-only transactions the nodes
// have committed so far.
func committedTxns(c *cluster.Cluster) uint64 {
	var n uint64
	for i := 0; i < nodes; i++ {
		st := c.Node(i).Stats()
		n += st.Commits + st.ROCommits
	}
	return n
}

// windowStats is what one client saw in one window.
type windowStats struct {
	lat    hist
	failed uint64
}

// runResult is everything a run measured; metrics are derived from it.
type runResult struct {
	cfg   runConfig
	setup []time.Duration
	win   []hist // per window, clients merged
	// What the coordinator read when its timer fired at each window's end,
	// as deltas. All four are read at the same moment, a scheduling delay
	// after the edge, so their ratios hold however late the timer was.
	winCPU    []time.Duration // process CPU burnt
	winMoves  []uint64        // ownership acquisitions completed
	winAllocs []uint64        // heap objects allocated
	winTxns   []uint64        // transactions the nodes committed
	failed    uint64          // ops that returned an error after dbapi's retries
	all       hist            // whole measured interval
	a, b      snapshot        // at the start and the end of the measured interval
	heapBytes uint64
	objects   int
	dirShards int
	openSlots int // largest sum of PendingSlots seen at a window boundary
	// Over the clients' whole life, warm-up included: ops that returned
	// without error, and transactions the nodes committed meanwhile.
	returned, committed uint64
	goroutines          int
}

// ops is the number of committed operations in the measured interval.
func (r *runResult) ops() uint64 { return r.all.n }

func (r *runResult) windowTPS(i int) float64 {
	return float64(r.win[i].n) / r.cfg.window.Seconds()
}

// windowCPUPerOp is the process CPU of window i, in microseconds, divided by
// the transactions committed meanwhile.
func (r *runResult) windowCPUPerOp(i int) float64 {
	return float64(r.winCPU[i].Nanoseconds()) / 1e3 / float64(r.winTxns[i])
}

// perOp is a per-window count (moves, allocations) summed over windows
// [from, to) ÷ the transactions committed meanwhile.
func (r *runResult) perOp(count []uint64, from, to int) float64 {
	var sum, txns uint64
	for i := from; i < to; i++ {
		sum += count[i]
		txns += r.winTxns[i]
	}
	return float64(sum) / float64(txns)
}

// thirds returns the median tps of the first and of the last third of the
// windows.
func (r *runResult) thirds() (first, last float64) {
	n := len(r.win)
	return r.overWindows(0, n/3, 1, r.windowTPS), r.overWindows(n-n/3, n, 1, r.windowTPS)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// overWindows returns the median of f(window) over every step-th window of
// [from, to). A traced run takes its untraced windows with (0, n, 2) and its
// traced ones with (1, n, 2).
func (r *runResult) overWindows(from, to, step int, f func(i int) float64) float64 {
	var v []float64
	for i := from; i < to; i += step {
		v = append(v, f(i))
	}
	return median(v)
}

func clusterOptions(w workload, t *tracer) cluster.Options {
	o := cluster.DefaultOptions(nodes)
	o.Degree = degree
	o.Workers = clients
	o.Fabric = w.fabric
	if t != nil {
		o.OnOwnershipLatency = t.ownershipLatency
	}
	return o
}

// setUp builds a cluster and seeds the workload's population: the work a
// deployment does before it can take its first transaction.
func setUp(cfg runConfig, gen generator) (*cluster.Cluster, time.Duration, error) {
	start := time.Now()
	c := cluster.New(clusterOptions(cfg.w, cfg.tracer))
	gen.Seed(bench.ZeusSeeder(c))
	if !c.WaitIdle(30 * time.Second) {
		c.Close()
		return nil, 0, fmt.Errorf("set-up: cluster not idle after seeding")
	}
	return c, time.Since(start), nil
}

// execute runs the workload once and validates the run. A run that fails a
// validity check returns an error and no result.
func execute(cfg runConfig) (*runResult, error) {
	gen := cfg.w.gen(cfg.scale)
	res := &runResult{cfg: cfg}
	var c *cluster.Cluster
	for i := 0; i < cfg.setups; i++ {
		if c != nil {
			c.Close()
			c = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		if c, d, err = setUp(cfg, gen); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, d)
	}
	defer c.Close()

	ops := make([]bench.Op, nodes)
	for n := range ops {
		var db dbapi.DB = c.Node(n).DB()
		if cfg.tracer != nil {
			db = tracedDB{inner: db, t: cfg.tracer}
		}
		ops[n] = gen.MakeOp(n, db)
	}

	// Clients run from now on; windows are cut by the clock, so a client
	// needs no signal to pass from warm-up into the measured interval.
	t0 := time.Now().Add(cfg.warmup)
	perClient := make([][]windowStats, clients)
	returned := make([]uint64, clients)
	committedBefore := committedTxns(c)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		perClient[k] = make([]windowStats, cfg.windows)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			returned[k] = runClient(cfg, k, ops, t0, perClient[k])
		}(k)
	}
	<-time.After(time.Until(t0))
	res.a = takeSnapshot(c)
	res.winCPU = make([]time.Duration, cfg.windows)
	res.winMoves = make([]uint64, cfg.windows)
	res.winAllocs = make([]uint64, cfg.windows)
	res.winTxns = make([]uint64, cfg.windows)
	cpu, moves, allocs, txns := res.a.cpu, res.a.moves, heapObjectsAllocated(), committedTxns(c)
	for w := 1; w <= cfg.windows; w++ {
		<-time.After(time.Until(t0.Add(time.Duration(w) * cfg.window)))
		now := processCPU()
		res.winCPU[w-1], cpu = now-cpu, now
		moved := ownershipMoves(c)
		res.winMoves[w-1], moves = moved-moves, moved
		allocated := heapObjectsAllocated()
		res.winAllocs[w-1], allocs = allocated-allocs, allocated
		committed := committedTxns(c)
		res.winTxns[w-1], txns = committed-txns, committed
		if cfg.tracer != nil {
			open := 0
			for i := 0; i < nodes; i++ {
				open += c.Node(i).CommitEngine().PendingSlots()
			}
			res.openSlots = max(res.openSlots, open)
		}
	}
	res.b = takeSnapshot(c)
	res.goroutines = runtime.NumGoroutine()
	wg.Wait()
	res.committed = committedTxns(c) - committedBefore
	for _, n := range returned {
		res.returned += n
	}
	if cfg.tracer != nil {
		cfg.tracer.stop()
	}

	res.win = make([]hist, cfg.windows)
	for _, pc := range perClient {
		for w := range pc {
			res.win[w].merge(&pc[w].lat)
			res.failed += pc[w].failed
		}
	}
	for w := range res.win {
		res.all.merge(&res.win[w])
	}

	if !c.WaitIdle(30 * time.Second) {
		return nil, fmt.Errorf("invalid run: commit pipelines not idle 30 s after the clients stopped")
	}
	if err := validate(res, c, gen); err != nil {
		return nil, fmt.Errorf("invalid run: %w", err)
	}
	for i := 0; i < nodes; i++ {
		res.objects += c.Node(i).Store().Len()
	}
	res.dirShards = c.DirShards()
	// Twice: a sync.Pool keeps what it held for one more cycle, and how much
	// the transports' buffer pools hold depends on the backlog of the
	// moment (smallbank_tcp read 41 or 72 MB after a single cycle).
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapBytes = ms.HeapAlloc
	return res, nil
}

// runClient is one closed-loop client: worker k, op i on node (i+k) mod 3,
// no think time. An op's latency runs from the previous op's return to its
// own, and it belongs to the window in which it returned.
func runClient(cfg runConfig, k int, ops []bench.Op, t0 time.Time, win []windowStats) (returned uint64) {
	rng := rand.New(rand.NewSource(cfg.seed*int64(clients) + int64(k)))
	var ct *clientTrace
	if cfg.tracer != nil {
		ct = cfg.tracer.clients[k]
	}
	prev := time.Now()
	for i := 0; ; i++ {
		if ct != nil && ct.on {
			ct.beginOp()
		}
		err := ops[(i+k)%nodes](k, rng)
		now := time.Now()
		if err == nil {
			returned++
		}
		since := now.Sub(t0)
		if since < 0 { // warm-up
			prev = now
			continue
		}
		w := int(since / cfg.window)
		if w >= len(win) {
			return returned
		}
		if err != nil {
			win[w].failed++
		} else {
			win[w].lat.record(int64(now.Sub(prev)))
		}
		if ct != nil {
			if ct.on {
				ct.endOp(now, now.Sub(prev), err == nil)
			}
			ct.on = w%2 == 1
		}
		prev = now
	}
}

// validate rejects a run that did not do what its workload claims, or whose
// numbers would not mean what their names say.
func validate(r *runResult, c *cluster.Cluster, gen generator) error {
	ops := r.ops()
	if ops == 0 {
		return fmt.Errorf("no operation committed")
	}
	moves := r.b.moves - r.a.moves
	if r.cfg.w.moves && moves == 0 {
		return fmt.Errorf("%s is meant to move ownership and moved none", r.cfg.w.name)
	}
	if !r.cfg.w.moves && moves != 0 {
		return fmt.Errorf("%s is meant to run without ownership moves and made %d", r.cfg.w.name, moves)
	}
	// Every op that returned without error must be a committed transaction.
	// Smallbank returns without one when it draws the same account twice
	// (3 in 10 000 ops at this population, 2 in 1 000 in the tests'): hence
	// the 1 %.
	if float64(r.committed) < 0.99*float64(r.returned) {
		return fmt.Errorf("%d ops returned without error but the nodes committed only %d transactions", r.returned, r.committed)
	}
	if r.b.epoch != r.a.epoch {
		return fmt.Errorf("membership epoch went %d -> %d during the measured interval", r.a.epoch, r.b.epoch)
	}
	if err := replicasAgree(r.cfg.seed, c, gen); err != nil {
		return err
	}
	if n := r.cfg.windows; n >= minGatedWindows {
		for _, work := range []struct {
			what  string
			count []uint64
		}{
			{"heap allocations", r.winAllocs},
			{"ownership moves", r.winMoves},
		} {
			first, last := r.perOp(work.count, 0, n/3), r.perOp(work.count, n-n/3, n)
			if math.Abs(first-last) > stationarityTol*math.Max(first, last) {
				return fmt.Errorf("not stationary: %.4f %s per op in the first third of the windows, %.4f in the last", first, work.what, last)
			}
		}
	}
	return nil
}

// stationarityTol is how far the first and the last third of the measured
// interval may disagree on the work an op takes: the heap objects it
// allocates, which every workload has and which follow whatever an op does
// (retries, ownership requests, messages), and the ownership moves it needs.
// The check is on work per op, not on tps: the host's speed drifts by up to
// 18 % within a run and would reject one valid run in four at this
// tolerance, while allocations per op repeat to a fraction of a percent.
const stationarityTol = 0.05

// replicasAgree reads 1 000 objects, sampled from those the generator seeds,
// through a read-only transaction on every node and requires identical
// bytes: with the pipelines idle, all three replicas must hold the same
// committed state.
func replicasAgree(seed int64, c *cluster.Cluster, gen generator) error {
	var seeded []uint64
	gen.Seed(func(obj uint64, _ int, _ []byte) { seeded = append(seeded, obj) })
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < 1000; s++ {
		obj := seeded[rng.Intn(len(seeded))]
		var ref []byte
		for n := 0; n < nodes; n++ {
			var got []byte
			err := dbapi.RunRO(c.Node(n).DB(), 0, func(tx dbapi.Txn) error {
				v, err := tx.Get(obj)
				got = bytes.Clone(v)
				return err
			})
			if err != nil {
				return fmt.Errorf("object %d unreadable on node %d: %w", obj, n, err)
			}
			if n == 0 {
				ref = got
			} else if !bytes.Equal(ref, got) {
				return fmt.Errorf("object %d differs between node 0 and node %d", obj, n)
			}
		}
	}
	return nil
}
