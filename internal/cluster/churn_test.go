package cluster

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/dbapi"
	"zeus/internal/netsim"
	"zeus/internal/wire"
)

func u64c(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func fromU64c(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// TestKillOwnerUnderLoad crashes the owner of a hot object while survivors
// keep incrementing it. Every increment acknowledged as committed before or
// after the crash must survive; the final counter equals the committed count.
// Runs with observability on: the liveness checks read the per-node metric
// registries instead of hand-rolled engine stats.
func TestKillOwnerUnderLoad(t *testing.T) {
	opts := DefaultOptions(4)
	opts.Observability = true
	c := New(opts)
	defer c.Close()
	defer logUnbacked(t, c)
	// Owner is node 3; readers are nodes 0 and 1 (defaults put them after
	// the owner in the live ring: 0,1).
	c.Seed(1, 3, wire.BitmapOf(0, 1), u64c(0))

	var committed atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, node := range []int{0, 1} {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			db := c.Node(node).DB()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := dbapi.Run(db, node, func(tx dbapi.Txn) error {
					v, err := tx.Get(1)
					if err != nil {
						return err
					}
					return tx.Set(1, u64c(fromU64c(v)+1))
				})
				if err == nil {
					committed.Add(1)
				}
			}
		}(node)
	}

	time.Sleep(20 * time.Millisecond)
	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Read the final value from whichever survivor owns it now.
	var final uint64
	err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(1)
		if err != nil {
			return err
		}
		final = fromU64c(v)
		return tx.Set(1, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != committed.Load() {
		t.Fatalf("lost updates across owner crash: counter=%d committed=%d",
			final, committed.Load())
	}
	// Liveness via the registries: the survivors' scraped commit counters
	// must show the load ran, and the view-service client must have measured
	// the recovery barrier the kill opened.
	var scraped uint64
	for _, node := range []int{0, 1} {
		v, _ := c.Obs(node).CounterValue("core_commits_total")
		scraped += v
	}
	if scraped == 0 {
		t.Fatal("no transactions committed at all (core_commits_total zero on both survivors)")
	}
	if barrier, ok := c.ViewObs().HistogramSnapshot("vs_barrier_ns"); !ok || barrier.Count == 0 {
		t.Fatal("owner kill left no vs_barrier_ns sample")
	}
}

// TestKillDirectoryNodeOwnershipContinues crashes one of the three directory
// replicas; ownership requests keep succeeding through the surviving ones.
func TestKillDirectoryNodeOwnershipContinues(t *testing.T) {
	c := New(DefaultOptions(5))
	defer c.Close()
	c.SeedAt(2, 3, []byte("dir-test"))
	if err := c.Kill(1); err != nil { // node 1 is a directory node
		t.Fatal(err)
	}
	// Ownership transfer must still work via directory nodes 0 and 2.
	err := dbapi.Run(c.Node(4).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(2, []byte("after-dir-crash"))
	})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := c.Node(4).Store().Get(2)
	if !ok {
		t.Fatal("object missing at new owner")
	}
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.LevelLocked() != wire.Owner {
		t.Fatalf("level = %v", o.LevelLocked())
	}
}

// TestLossyFabricOwnershipChurn runs ownership ping-pong over a lossy,
// duplicating fabric: the reliable messaging layer must mask every fault.
func TestLossyFabricOwnershipChurn(t *testing.T) {
	opts := DefaultOptions(3)
	opts.Fabric = FabricSim
	opts.Workers = 2
	opts.Observability = true
	opts.Net = netsim.Config{
		Seed:       11,
		MinLatency: 2 * time.Microsecond,
		MaxLatency: 40 * time.Microsecond,
		LossProb:   0.05,
		DupProb:    0.05,
		InboxDepth: 1 << 14,
	}
	c := New(opts)
	defer c.Close()
	c.SeedAt(3, 0, u64c(0))
	// Counter bounce across all three nodes.
	for round := 0; round < 15; round++ {
		node := round % 3
		err := dbapi.Run(c.Node(node).DB(), 0, func(tx dbapi.Txn) error {
			v, err := tx.Get(3)
			if err != nil {
				return err
			}
			return tx.Set(3, u64c(fromU64c(v)+1))
		})
		if err != nil {
			t.Fatalf("round %d on node %d: %v", round, node, err)
		}
	}
	var final uint64
	if err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(3)
		if err != nil {
			return err
		}
		final = fromU64c(v)
		return tx.Set(3, v)
	}); err != nil {
		t.Fatal(err)
	}
	if final != 15 {
		t.Fatalf("lossy fabric lost increments: %d/15", final)
	}
	// No failure was injected, so every one of the 15 moves found the value
	// where the requester said it was: the source shipped whenever the
	// requester held an older version, and no grant had to be refused.
	if n := unbacked(t, c); n != 0 {
		t.Fatalf("%d grants were refused as unbacked", n)
	}
}

// unbacked sums own_nack_unbacked_total over every node the cluster ever
// started (its current incarnation): how often a requester refused a grant
// that would have raised it over a value older than the data source's, with
// none shipped, and asked again. Needs Options.Observability.
func unbacked(t *testing.T, c *Cluster) uint64 {
	t.Helper()
	var n uint64
	for i := 0; i < c.Nodes(); i++ {
		reg := c.Obs(i)
		if reg == nil {
			t.Errorf("node %d has no metrics: the test needs Options.Observability", i)
			continue
		}
		v, _ := reg.CounterValue("own_nack_unbacked_total")
		n += v
	}
	return n
}

// logUnbacked is deferred by the torture tests: the count of unbacked
// refusals lands in the -v log of a passing run and next to the failure
// message of a failing one.
func logUnbacked(t *testing.T, c *Cluster) {
	t.Helper()
	t.Logf("unbacked grants refused, all nodes: %d", unbacked(t, c))
}

// TestSequentialKills removes two nodes one after the other; the deployment
// keeps operating with the remaining quorum of directory nodes.
func TestSequentialKills(t *testing.T) {
	c := New(DefaultOptions(5))
	defer c.Close()
	c.SeedAt(4, 4, []byte("s"))
	if err := c.Kill(4); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}
	if c.Live().Count() != 3 {
		t.Fatalf("live = %v", c.Live())
	}
	err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(4, []byte("still-alive"))
	})
	if err != nil {
		t.Fatal(err)
	}
}
