package main

import (
	"fmt"
	"runtime"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/netsim"
	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// ladder holds the direct timed calls into single layers, made before load
// on an otherwise idle process: the floor each layer sets under the
// transaction figures.
type ladder struct {
	hubRTTus, tcpRTTus, reliableRTTus float64
	codecNS, codecAllocs              float64
	storeGetNS                        float64
	bulkMovePerS                      float64
}

// Iteration counts at scale 1; tests shrink them.
const (
	ladderEchoes   = 10000
	ladderCodecOps = 200000
	// What one node's store holds under the workloads: with degree = nodes
	// every node replicates the whole Smallbank population, two objects an
	// account (TATP's 2 500 x 4 x 3 is the same 30 000).
	ladderStoreObjs = smallbankAccounts * 2 * nodes
	ladderStoreGets = 1000000
	ladderMoveObjs  = 20000
)

func runLadder(scale float64) (ladder, error) {
	n := func(full int) int { return max(int(float64(full)*scale), 100) }
	var l ladder
	var err error

	hub := transport.NewHub()
	if l.hubRTTus, err = echoRTT(hub.Node(0), hub.Node(1), n(ladderEchoes)); err != nil {
		return l, fmt.Errorf("hub echo: %w", err)
	}

	ta, err := transport.NewTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		return l, err
	}
	tb, err := transport.NewTCP(1, "127.0.0.1:0", map[wire.NodeID]string{0: ta.Addr()})
	if err != nil {
		ta.Close()
		return l, err
	}
	ta.SetAddr(1, tb.Addr())
	if l.tcpRTTus, err = echoRTT(ta, tb, n(ladderEchoes)); err != nil {
		return l, fmt.Errorf("tcp echo: %w", err)
	}

	// Zero-latency simulated fabric: what is left is the reliable
	// transport's own framing, acking and queueing.
	nw := netsim.New(netsim.Config{Seed: 1, InboxDepth: 4096})
	ra := transport.NewReliable(nw.Endpoint(0), transport.DefaultReliableConfig())
	rb := transport.NewReliable(nw.Endpoint(1), transport.DefaultReliableConfig())
	l.reliableRTTus, err = echoRTT(ra, rb, n(ladderEchoes))
	nw.Close()
	if err != nil {
		return l, fmt.Errorf("reliable echo: %w", err)
	}

	l.codecNS, l.codecAllocs, err = codecCost(n(ladderCodecOps))
	if err != nil {
		return l, err
	}
	l.storeGetNS = storeGetCost(n(ladderStoreObjs), n(ladderStoreGets))
	l.bulkMovePerS, err = bulkMove(n(ladderMoveObjs))
	return l, err
}

// echoRTT sends one small message from a to b, which sends it back, rounds
// times, one at a time, and returns the median round trip in microseconds.
// It closes both transports.
func echoRTT(a, b transport.Transport, rounds int) (float64, error) {
	defer a.Close()
	defer b.Close()
	back := make(chan struct{}, 1) // one echo in flight
	b.SetHandler(func(from wire.NodeID, m wire.Msg) {
		_ = b.Send(from, m) // a lost echo shows as the timeout below
		transport.Flush(b)
	})
	a.SetHandler(func(wire.NodeID, wire.Msg) { back <- struct{}{} })
	var h hist
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := a.Send(b.Self(), &wire.SafeTime{From: a.Self(), WM: uint64(i)}); err != nil {
			return 0, err
		}
		transport.Flush(a)
		select {
		case <-back:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("echo %d not returned within 5 s", i)
		}
		h.record(int64(time.Since(start)))
	}
	return us(h.quantile(0.5)), nil
}

// codecCost marshals and unmarshals the replication path's hot message: a
// CommitInv carrying two 64-byte updates, a Smallbank send-payment.
func codecCost(rounds int) (ns, allocs float64, err error) {
	m := &wire.CommitInv{
		Tx:        wire.TxID{Pipe: wire.PipeID{Node: 1, Worker: 1}, Local: 77},
		Epoch:     3,
		Followers: wire.BitmapOf(0, 2),
		Updates: []wire.Update{
			{Obj: 42, Version: 9, Data: make([]byte, 64)},
			{Obj: 43, Version: 5, Data: make([]byte, 64)},
		},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := wire.Unmarshal(wire.Marshal(m)); err != nil {
			return 0, 0, fmt.Errorf("wire: CommitInv round trip: %w", err)
		}
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / float64(rounds), float64(after.Mallocs-before.Mallocs) / float64(rounds), nil
}

// storeGetCost times Store.Get at random ids over a store of objs objects.
func storeGetCost(objs, gets int) float64 {
	st := store.New()
	for i := 0; i < objs; i++ {
		st.GetOrCreate(wire.ObjectID(i))
	}
	found := 0
	x := uint64(1) // LCG: the ids must not fit a cache the way a short id list would
	start := time.Now()
	for i := 0; i < gets; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if _, ok := st.Get(wire.ObjectID((x >> 33) % uint64(objs))); ok {
			found++
		}
	}
	d := time.Since(start)
	if found != gets {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(gets)
}

// bulkMove moves fresh objects from node 0 to node 1 with one mover, the
// paper's unit ("a single worker thread can move 25k objects per second").
func bulkMove(objs int) (float64, error) {
	c := cluster.New(clusterOptions(workload{fabric: cluster.FabricMem}, nil))
	defer c.Close()
	ids := make([]uint64, objs)
	for i := range ids {
		ids[i] = uint64(i + 1)
		c.SeedAt(wire.ObjectID(ids[i]), 0, bench.Pad(1, 64))
	}
	res := bench.MoveObjects(c.Node(1), ids)
	if res.Failed > 0 {
		return 0, fmt.Errorf("bulk move: %d of %d acquisitions failed", res.Failed, objs)
	}
	return res.Rate(), nil
}
