package cluster

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/checker"
	"zeus/internal/dbapi"
	"zeus/internal/wire"
)

// dirTortureOpts builds a 5-node lossy FabricSim cluster with a 16-shard
// directory: 5 nodes (not 4) so that a pure directory driver — neither a
// replica of the hot objects nor a writer — exists and can be crashed in
// isolation, and every shard still has a full 3-driver set afterwards.
func dirTortureOpts() Options {
	opts := tortureOpts()
	opts.Nodes = 5
	opts.View.DirShards = 16
	return opts
}

// dirHotObjects are the counters the writers hammer. Values are seeded to 1
// so value == t_version throughout, giving the checker exact footprints.
var dirHotObjects = []wire.ObjectID{1, 2, 3, 4, 5, 6}

// startDirLoad runs increment transactions over the hot objects from nodes 0
// and 1. Every alternation of the writer node forces an ownership REQ, so
// the directory is on the hot path of every single commit.
func startDirLoad(c *Cluster, history *[]checker.Tx, hmu *sync.Mutex,
	committed *[8]atomic.Uint64, stop chan struct{}, wg *sync.WaitGroup) {
	for _, node := range []int{0, 1} {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			db := c.Node(node).DB()
			i := node
			for {
				select {
				case <-stop:
					return
				default:
				}
				obj := dirHotObjects[i%len(dirHotObjects)]
				i += 1 + node
				var read uint64
				start := time.Now().UnixNano()
				err := dbapi.Run(db, node, func(tx dbapi.Txn) error {
					v, err := tx.Get(uint64(obj))
					if err != nil {
						return err
					}
					read = fromU64c(v)
					return tx.Set(uint64(obj), u64c(read+1))
				})
				if err != nil {
					continue
				}
				end := time.Now().UnixNano()
				committed[obj].Add(1)
				hmu.Lock()
				*history = append(*history, checker.Tx{
					ID: len(*history), Start: start, End: end,
					Reads:  []checker.Access{{Obj: uint64(obj), Ver: read}},
					Writes: []checker.Access{{Obj: uint64(obj), Ver: read + 1}},
				})
				hmu.Unlock()
			}
		}(node)
	}
}

// assertDirInvariants checks the post-crash invariants shared by both
// torture tests: shard re-placement (no shard driven by the dead node, full
// driver sets from the survivors), no lost ownership grants or updates (per
// counter: final value == 1 + committed increments), completed arb-replays
// (no arbitration left pending anywhere), and a strictly serializable
// history.
func assertDirInvariants(t *testing.T, c *Cluster, dead wire.NodeID,
	history []checker.Tx, committed *[8]atomic.Uint64) {
	t.Helper()

	// Shard re-placement through the replicated view service.
	p := c.Manager().Placement()
	if p == nil || p.IsZero() {
		t.Fatal("no replicated placement")
	}
	if len(p.Shards) != 16 {
		t.Fatalf("shard count drifted: %d", len(p.Shards))
	}
	live := c.Live()
	wantDegree := 3
	if live.Count() < 3 {
		wantDegree = live.Count()
	}
	for s, ds := range p.Shards {
		if ds.Contains(dead) {
			t.Fatalf("shard %d still driven by dead node %d", s, dead)
		}
		if ds.Count() != wantDegree {
			t.Fatalf("shard %d has %d drivers, want %d", s, ds.Count(), wantDegree)
		}
		if ds.Intersect(live) != ds {
			t.Fatalf("shard %d drivers %v outside live set %v", s, ds, live)
		}
	}

	// No lost ownership grants / lost updates: each counter's final value
	// equals 1 (seed) + committed increments for it.
	for _, obj := range dirHotObjects {
		var final uint64
		err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
			v, err := tx.Get(uint64(obj))
			if err != nil {
				return err
			}
			final = fromU64c(v)
			return tx.Set(uint64(obj), v)
		})
		if err != nil {
			// Pending-commit wedge trace (ROADMAP liveness bug).
			c.WedgeDump(os.Stderr, fmt.Sprintf("directory-torture final read of %d: %v", obj, err))
			t.Fatalf("final read of %d: %v", obj, err)
		}
		if want := committed[obj].Load() + 1; final != want {
			t.Fatalf("obj %d: counter=%d committed+seed=%d (lost updates)", obj, final, want)
		}
	}

	// Arb-replay completion: once traffic stopped and pipelines drained, no
	// live node may hold a pending arbitration for a hot object.
	if !c.WaitIdle(10 * time.Second) {
		t.Fatal("commit pipelines never drained")
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, obj := range dirHotObjects {
	nodeLoop:
		for _, id := range live.Nodes() {
			for {
				o, ok := c.nodes[id].Store().Get(obj)
				if !ok {
					continue nodeLoop
				}
				o.Mu.Lock()
				_, pending := o.PendingLocked()
				o.Mu.Unlock()
				if !pending {
					continue nodeLoop
				}
				if time.Now().After(deadline) {
					t.Fatalf("obj %d: node %d stuck with a pending arbitration", obj, id)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	// Strict serializability of the committed history.
	checkHistory(t, history, nil)
}

// TestDirectoryDriverCrashUnderLoad crashes a PURE directory driver — a node
// that replicates none of the hot objects and runs no writer — mid-Acquire
// under lossy-netsim load. The shards it drove must be re-driven by the
// survivors (after its lease expires), the replacement drivers must sync the
// shard metadata, in-flight arbitrations must heal via arb-replay, and no
// ownership grant or committed update may be lost.
func TestDirectoryDriverCrashUnderLoad(t *testing.T) {
	c := New(dirTortureOpts())
	defer c.Close()
	// Hot objects owned by node 4 with readers {0,1}: nodes 2 and 3 hold no
	// replica. Node 3 is the victim — by rendezvous it drives several of
	// the 16 shards but serves no data.
	for _, obj := range dirHotObjects {
		c.Seed(obj, 4, wire.BitmapOf(0, 1), u64c(1))
	}

	var hmu sync.Mutex
	var history []checker.Tx
	var committed [8]atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	startDirLoad(c, &history, &hmu, &committed, stop, &wg)

	time.Sleep(15 * time.Millisecond) // REQ traffic flowing, arbitrations in flight

	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}

	// Keep acquiring through the re-placed directory.
	time.Sleep(15 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The replacement drivers must have pulled (or force-readied) the
	// shards node 3 drove.
	pulls := uint64(0)
	for _, id := range c.Live().Nodes() {
		if svc := c.nodes[id].DirectoryService(); svc != nil {
			st := svc.Stats()
			pulls += st.Pulls
			if st.Syncing != 0 {
				t.Fatalf("node %d still syncing %d shards after recovery", id, st.Syncing)
			}
		}
	}
	if pulls == 0 {
		t.Fatal("no shard metadata pulls despite a driver crash")
	}

	hmu.Lock()
	defer hmu.Unlock()
	assertDirInvariants(t, c, 3, history, &committed)
	if committed[dirHotObjects[0]].Load() == 0 {
		t.Fatal("no transactions committed on the first hot object")
	}
}

// TestDirectoryViewLeaderCrashMidAcquire crashes the view-service LEADER
// while Acquire-heavy load runs — the placement authority itself fails out
// from under the directory — then kills a directory driver THROUGH the new
// leader. Placement must keep evolving (ballot takeover adopts it with the
// rest of the state) and all directory invariants must hold.
func TestDirectoryViewLeaderCrashMidAcquire(t *testing.T) {
	c := New(dirTortureOpts())
	defer c.Close()
	for _, obj := range dirHotObjects {
		c.Seed(obj, 4, wire.BitmapOf(0, 1), u64c(1))
	}

	var hmu sync.Mutex
	var history []checker.Tx
	var committed [8]atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	startDirLoad(c, &history, &hmu, &committed, stop, &wg)

	time.Sleep(10 * time.Millisecond)

	// Crash the view-service leader mid-load; wait for the takeover.
	leader := waitLeader(t, c, -1, 5*time.Second)
	if err := c.KillViewReplica(leader); err != nil {
		t.Fatal(err)
	}
	waitLeader(t, c, leader, 5*time.Second)
	time.Sleep(10 * time.Millisecond)

	// Kill a directory driver through the NEW leader: lease wait, view
	// change, barrier AND placement recompute all flow through it.
	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond)
	close(stop)
	wg.Wait()

	hmu.Lock()
	defer hmu.Unlock()
	assertDirInvariants(t, c, 3, history, &committed)
	if len(history) == 0 {
		t.Fatal("no transactions committed at all")
	}
}
