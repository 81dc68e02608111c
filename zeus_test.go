package zeus_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus"
	"zeus/internal/checker"
	"zeus/internal/netsim"
)

func TestPublicAPIQuickstart(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 3})
	defer c.Close()
	n := c.Node(0)
	if err := n.CreateObject(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := n.Update(0, func(tx *zeus.Tx) error {
		v, err := tx.Get(1)
		if err != nil {
			return err
		}
		return tx.Set(1, append(append([]byte(nil), v...), '!'))
	}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := n.View(0, func(tx *zeus.Tx) error {
		var err error
		got, err = tx.Get(1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello!" {
		t.Fatalf("got %q", got)
	}
	st := n.Stats()
	if st.Commits == 0 || st.ReadOnlyCommits == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPublicAPIMigrationAndLocality(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 4})
	defer c.Close()
	c.Seed(10, 0, []byte("migrate-me"))
	n3 := c.Node(3)
	if err := n3.Update(0, func(tx *zeus.Tx) error {
		return tx.Set(10, []byte("moved"))
	}); err != nil {
		t.Fatal(err)
	}
	if n3.Stats().OwnershipMoves == 0 {
		t.Fatal("no ownership move recorded")
	}
	if err := n3.AcquireOwnership(10); err != nil {
		t.Fatal(err) // already owner: fast path
	}
}

// DirectoryShards <= 0 means the host-scaled default, never "no sharded
// directory": a negative value builds the same working cluster as zero.
func TestPublicAPINonPositiveDirectoryShards(t *testing.T) {
	for _, shards := range []int{0, -1} {
		c := zeus.New(zeus.Options{Nodes: 4, DirectoryShards: shards})
		c.Seed(10, 0, []byte("migrate-me"))
		n3 := c.Node(3)
		if err := n3.Update(0, func(tx *zeus.Tx) error {
			return tx.Set(10, []byte("moved"))
		}); err != nil {
			t.Fatalf("DirectoryShards %d: %v", shards, err)
		}
		if n3.Stats().OwnershipMoves == 0 {
			t.Fatalf("DirectoryShards %d: no ownership move recorded", shards)
		}
		if err := n3.CreateObject(11, []byte("new")); err != nil {
			t.Fatalf("DirectoryShards %d: create: %v", shards, err)
		}
		c.Close()
	}
}

// WatchdogAge alone arms the watchdog: without Observability each node gets
// a private registry for the incidents to land in, as the option's doc says.
func TestPublicAPIWatchdogAgeAloneArmsTheWatchdog(t *testing.T) {
	t.Setenv("ZEUS_WATCHDOG_AGE", "")
	c := zeus.New(zeus.Options{Nodes: 3, WatchdogAge: time.Second})
	defer c.Close()
	for i := 0; i < c.Nodes(); i++ {
		if c.Node(i).Obs() == nil {
			t.Errorf("node %d: no registry, so no watchdog", i)
		}
	}
}

func TestPublicAPIFailover(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 4})
	defer c.Close()
	c.Seed(20, 0, []byte("survive"))
	if err := c.Node(0).Update(0, func(tx *zeus.Tx) error {
		return tx.Set(20, []byte("survive-v2"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := c.Node(3).Update(0, func(tx *zeus.Tx) error {
		var err error
		got, err = tx.Get(20)
		if err != nil {
			return err
		}
		return tx.Set(20, []byte("survive-v3"))
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "survive-v2" {
		t.Fatalf("read %q after failover", got)
	}
}

func TestPublicAPISerializableCounter(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 3, Workers: 4})
	defer c.Close()
	c.Seed(30, 0, counterBytes(0))
	const perNode = 20
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := c.Node(i)
			for k := 0; k < perNode; k++ {
				if err := n.Update(i, func(tx *zeus.Tx) error {
					v, err := tx.Get(30)
					if err != nil {
						return err
					}
					return tx.Set(30, counterBytes(counterVal(v)+1))
				}); err != nil {
					t.Errorf("node %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var final uint64
	if err := c.Node(0).Update(0, func(tx *zeus.Tx) error {
		v, err := tx.Get(30)
		if err != nil {
			return err
		}
		final = counterVal(v)
		return tx.Set(30, v)
	}); err != nil {
		t.Fatal(err)
	}
	if final != 3*perNode {
		t.Fatalf("counter = %d, want %d", final, 3*perNode)
	}
}

func TestPublicAPIUnknownObject(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 3})
	defer c.Close()
	err := c.Node(0).Update(0, func(tx *zeus.Tx) error {
		return tx.Set(999, []byte("x"))
	})
	if err == nil || zeus.IsConflict(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicAPIManualTxAndAbort(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 3})
	defer c.Close()
	c.Seed(40, 0, []byte("d"))
	tx := c.Node(0).BeginOn(0)
	if err := tx.Set(40, []byte("d2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Abort path.
	tx2 := c.Node(0).Begin()
	if err := tx2.Set(40, []byte("never")); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()
	var got []byte
	if err := c.Node(0).View(0, func(tx *zeus.Tx) error {
		var err error
		got, err = tx.Get(40)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "d2" {
		t.Fatalf("aborted write leaked: %q", got)
	}
}

func TestPublicAPISimulatedNetwork(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 3, SimulatedNetwork: true})
	defer c.Close()
	c.Seed(50, 0, []byte("sim"))
	if err := c.Node(1).Update(0, func(tx *zeus.Tx) error {
		return tx.Set(50, []byte("sim2"))
	}); err != nil {
		t.Fatal(err)
	}
	if c.Messages() == 0 || c.Bytes() == 0 {
		t.Fatal("no traffic accounted on simulated fabric")
	}
}

// TestPublicAPISimulatedNetworkIsTheConfiguredOne: Options.Network is the
// fabric the deployment runs on, whatever of it is left zero. With a fifth of
// the frames lost, 200 updates replicated one at a time cost about 400
// retransmissions; on the loss-free default fabric, a few dozen spurious ones
// at most.
func TestPublicAPISimulatedNetworkIsTheConfiguredOne(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 3, SimulatedNetwork: true, Observability: true,
		Network: netsim.Config{Seed: 3, LossProb: 0.2, MaxLatency: 30 * time.Microsecond}})
	defer c.Close()
	c.Seed(55, 0, []byte("v"))
	for i := 0; i < 200; i++ {
		// One update at a time, each replicated before Commit returns:
		// every one crosses the links in frames of its own.
		tx := c.Node(0).Begin()
		if err := tx.Set(55, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var retx uint64
	for i := 0; i < c.Nodes(); i++ {
		for _, name := range []string{"tr_retransmits_total", "tr_fast_retransmits_total"} {
			v, _ := c.Node(i).Obs().CounterValue(name)
			retx += v
		}
	}
	t.Logf("%d retransmissions", retx)
	if retx < 150 {
		t.Fatalf("%d retransmissions for 200 updates over 20%% loss: the deployment is not on the configured network", retx)
	}
}

func TestPublicAPIScaleOutAndIn(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 3})
	defer c.Close()
	c.Seed(60, 0, []byte("scale"))
	n := c.AddNode()
	if n.ID() != 3 {
		t.Fatalf("new node id %d", n.ID())
	}
	if err := n.Update(0, func(tx *zeus.Tx) error {
		return tx.Set(60, []byte("from-new-node"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(3); err != nil {
		t.Fatal(err)
	}
	// Survivors still serve the object.
	if err := c.Node(0).Update(0, func(tx *zeus.Tx) error {
		v, err := tx.Get(60)
		if err != nil {
			return err
		}
		if string(v) != "from-new-node" {
			return fmt.Errorf("lost scale-out write: %q", v)
		}
		return tx.Set(60, []byte("back-on-old"))
	}); err != nil {
		t.Fatal(err)
	}
}

func counterBytes(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func counterVal(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// TestPublicAPIUseAfterFinish: a transaction handle kept past Update must be
// inert. A stale Set used to re-take the object's local write grant — on a
// finished transaction nothing ever releases it — so every other worker's
// write to the object conflicted until its retry budget ran out.
func TestPublicAPIUseAfterFinish(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 3})
	defer c.Close()
	c.Seed(1, 0, counterBytes(0))
	n := c.Node(0)
	var stale *zeus.Tx
	if err := n.Update(0, func(tx *zeus.Tx) error {
		stale = tx
		return tx.Set(1, counterBytes(1))
	}); err != nil {
		t.Fatal(err)
	}
	if err := stale.Set(1, counterBytes(99)); err == nil {
		t.Error("Set on a committed transaction succeeded")
	}
	if _, err := stale.Get(1); err == nil {
		t.Error("Get on a committed transaction succeeded")
	}
	done := make(chan error, 1)
	go func() {
		done <- n.Update(1, func(tx *zeus.Tx) error { return tx.Set(1, counterBytes(2)) })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("another worker's write after the stale Set: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("another worker's write is wedged behind the finished transaction's local grant")
	}
	var got uint64
	if err := n.View(0, func(tx *zeus.Tx) error {
		v, err := tx.Get(1)
		got = counterVal(v)
		return err
	}); err != nil || got != 2 {
		t.Fatalf("object reads %d, %v; want 2", got, err)
	}

	// The engine reuses worker 0's transaction record, so while the worker's
	// next Update runs, the record behind the first handle is live again: the
	// handle must still refuse everything and leave that transaction alone.
	if err := n.Update(0, func(tx *zeus.Tx) error {
		if err := tx.Set(1, counterBytes(3)); err != nil {
			return err
		}
		if err := stale.Set(1, counterBytes(99)); err == nil {
			t.Error("stale Set reached the worker's next transaction")
		}
		if _, err := stale.Get(1); err == nil {
			t.Error("stale Get reached the worker's next transaction")
		}
		if err := stale.Commit(); err == nil {
			t.Error("stale Commit finished the worker's next transaction")
		}
		stale.Abort()
		v, err := tx.Get(1)
		if err == nil && counterVal(v) != 3 {
			t.Errorf("the running transaction reads its own write as %d, want 3", counterVal(v))
		}
		return err
	}); err != nil {
		t.Fatalf("second Update on the worker: %v", err)
	}
	if err := n.View(0, func(tx *zeus.Tx) error {
		v, err := tx.Get(1)
		got = counterVal(v)
		return err
	}); err != nil || got != 3 {
		t.Fatalf("object reads %d, %v; want 3", got, err)
	}
}

// TestPublicAPIBeginFindsAnIdleWorker: W goroutines begin transactions
// through Begin on a node of W workers. A caller inside Begin holds no worker,
// so one is always idle, and Begin must find it: not one busy answer. (Begin
// used to make one pass over the workers, and answered busy when a worker
// was freed behind its scan while the one ahead of it was taken.)
func TestPublicAPIBeginFindsAnIdleWorker(t *testing.T) {
	const workers, perRoutine = 4, 25_000
	c := zeus.New(zeus.Options{Nodes: 3, Workers: workers})
	defer c.Close()
	n := c.Node(0)
	var busy atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perRoutine; i++ {
				if err := n.Begin().Commit(); zeus.IsConflict(err) {
					busy.Add(1)
				} else if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if b := busy.Load(); b != 0 {
		t.Fatalf("Begin answered busy %d times in %d transactions on %d workers with %d goroutines",
			b, workers*perRoutine, workers, workers)
	}
}

// TestPublicAPIOneTransactionPerWorker: goroutines that increment one counter
// through the public API, more of them than there are workers to run them,
// lose no committed increment. A worker runs one transaction at a time:
// Update on a busy worker, and Begin while every worker is busy, answer
// ErrConflict and are retried. Two increments on one worker used to share its
// local write grant and commit the same version, which the checker reports as
// a duplicate version.
func TestPublicAPIOneTransactionPerWorker(t *testing.T) {
	bump := func(tx *zeus.Tx) (read uint64, err error) {
		v, err := tx.Get(1)
		if err != nil {
			return 0, err
		}
		read = counterVal(v)
		return read, tx.Set(1, counterBytes(read+1))
	}
	for _, tc := range []struct {
		name              string
		workers, routines int
		rounds            int
		increment         func(*zeus.Node) (read uint64, err error)
	}{
		{name: "Update on one worker", workers: 4, routines: 8, rounds: 1000,
			increment: func(n *zeus.Node) (read uint64, err error) {
				err = n.Update(0, func(tx *zeus.Tx) (err error) {
					read, err = bump(tx)
					return err
				})
				return read, err
			}},
		{name: "Begin on more goroutines than workers", workers: 2, routines: 8, rounds: 2000,
			increment: func(n *zeus.Node) (uint64, error) {
				for {
					tx := n.Begin()
					read, err := bump(tx)
					if err == nil {
						err = tx.Commit()
					} else {
						tx.Abort()
					}
					if !zeus.IsConflict(err) {
						return read, err
					}
					runtime.Gosched()
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := zeus.New(zeus.Options{Nodes: 3, Workers: tc.workers})
			defer c.Close()
			c.Seed(1, 0, counterBytes(0))
			n := c.Node(0)
			var (
				clock atomic.Int64
				mu    sync.Mutex
				hist  []checker.Tx
				wg    sync.WaitGroup
			)
			for g := 0; g < tc.routines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < tc.rounds; i++ {
						start := clock.Add(1)
						read, err := tc.increment(n)
						if err != nil {
							t.Error(err)
							return
						}
						end := clock.Add(1)
						// Value k is version k+1: the seed installed 0 at version 1.
						mu.Lock()
						hist = append(hist, checker.Tx{ID: len(hist) + 1, Start: start, End: end,
							Reads:  []checker.Access{{Obj: 1, Ver: read + 1}},
							Writes: []checker.Access{{Obj: 1, Ver: read + 2}}})
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			if err := checker.Check(hist); err != nil {
				t.Errorf("history of %d acknowledged increments: %v", len(hist), err)
			}
			var got uint64
			if err := n.View(0, func(tx *zeus.Tx) error {
				v, err := tx.Get(1)
				got = counterVal(v)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if want := uint64(len(hist)); got != want {
				t.Errorf("the counter reads %d after %d acknowledged increments", got, want)
			}
		})
	}
}

// TestPublicAPIReadAfterWrite: a write whose Update or Commit returned is
// what every later transaction reads, on any node. Node 0 writes round i and
// node 1 reads right after the call returned: it must read i, on the hub and
// on the simulated network alike. While Commit returned at the local commit,
// node 1 read the previous value in nearly every round (1 975 of 2 000 on the
// hub, 1 989 on the simulated network).
func TestPublicAPIReadAfterWrite(t *testing.T) {
	const rounds = 2000
	for _, net := range []struct {
		name string
		sim  bool
	}{{"hub", false}, {"sim", true}} {
		for _, wr := range []struct {
			name  string
			write func(n *zeus.Node, val []byte) error
		}{
			{"Update", func(n *zeus.Node, val []byte) error {
				return n.Update(0, func(tx *zeus.Tx) error { return tx.Set(1, val) })
			}},
			{"Commit", func(n *zeus.Node, val []byte) error {
				for {
					tx := n.BeginOn(0)
					err := tx.Set(1, val)
					if err == nil {
						err = tx.Commit()
					} else {
						tx.Abort()
					}
					if !zeus.IsConflict(err) {
						return err
					}
				}
			}},
		} {
			t.Run(net.name+"/"+wr.name, func(t *testing.T) {
				c := zeus.New(zeus.Options{Nodes: 3, SimulatedNetwork: net.sim})
				defer c.Close()
				c.Seed(1, 0, counterBytes(0))
				writer, reader := c.Node(0), c.Node(1)
				stale := 0
				for i := uint64(1); i <= rounds; i++ {
					if err := wr.write(writer, counterBytes(i)); err != nil {
						t.Fatalf("round %d: %v", i, err)
					}
					var got uint64
					if err := reader.View(0, func(tx *zeus.Tx) error {
						v, err := tx.Get(1)
						got = counterVal(v)
						return err
					}); err != nil {
						t.Fatalf("round %d: read: %v", i, err)
					}
					if got != i {
						stale++
					}
				}
				if stale > 0 {
					t.Fatalf("%d of %d reads on node 1 missed the write node 0's %s had returned", stale, rounds, wr.name)
				}
			})
		}
	}
}

// TestPublicAPITortureOwnerKill: Update writers on the objects' owner (node
// 0) and on node 1 increment two counters together while View readers on
// nodes 2 and 3 read both, and the owner is killed midway. Each write ends
// at Update's return, so the history is strictly serializable only if a
// returned write is ordered before every read that starts after it. A write
// on the killed node that had not returned by then is left out, whether or
// not it survived: its caller never heard that it committed.
func TestPublicAPITortureOwnerKill(t *testing.T) {
	c := zeus.New(zeus.Options{Nodes: 4, Workers: 2})
	defer c.Close()
	const objA, objB = 1, 2
	c.Seed(objA, 0, counterBytes(0))
	c.Seed(objB, 0, counterBytes(0))

	var (
		mu    sync.Mutex
		hist  []checker.Tx
		clock atomic.Int64
	)
	record := func(start, end int64, reads, writes []checker.Access) {
		mu.Lock()
		hist = append(hist, checker.Tx{ID: len(hist) + 1, Start: start, End: end, Reads: reads, Writes: writes})
		mu.Unlock()
	}
	// Values are seeded 0 at version 1 and every write installs the next
	// version: value k is version k+1.
	increment := func(n *zeus.Node) error {
		start := clock.Add(1)
		var va, vb uint64
		err := n.Update(0, func(tx *zeus.Tx) error {
			a, err := tx.Get(objA)
			if err != nil {
				return err
			}
			b, err := tx.Get(objB)
			if err != nil {
				return err
			}
			va, vb = counterVal(a)+1, counterVal(b)+1
			if err := tx.Set(objA, counterBytes(va)); err != nil {
				return err
			}
			return tx.Set(objB, counterBytes(vb))
		})
		if err != nil {
			return err
		}
		record(start, clock.Add(1),
			[]checker.Access{{Obj: objA, Ver: va}, {Obj: objB, Ver: vb}},
			[]checker.Access{{Obj: objA, Ver: va + 1}, {Obj: objB, Ver: vb + 1}})
		return nil
	}
	readBoth := func(n *zeus.Node) error {
		start := clock.Add(1)
		var a, b uint64
		err := n.View(1, func(tx *zeus.Tx) error {
			av, err := tx.Get(objA)
			if err != nil {
				return err
			}
			bv, err := tx.Get(objB)
			a, b = counterVal(av), counterVal(bv)
			return err
		})
		if err != nil {
			return err
		}
		if a != b {
			t.Errorf("a read on node %d tore the invariant: a=%d b=%d", n.ID(), a, b)
		}
		record(start, clock.Add(1), []checker.Access{{Obj: objA, Ver: a + 1}, {Obj: objB, Ver: b + 1}}, nil)
		return nil
	}

	stop := make(chan struct{})
	var survivors, owner sync.WaitGroup
	loop := func(wg *sync.WaitGroup, node int, op func(*zeus.Node) error, mustSucceed bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := c.Node(node)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(n); err != nil {
					if mustSucceed {
						t.Errorf("node %d: %v", node, err)
					}
					return
				}
			}
		}()
	}
	// The owner's writer ends at the kill: its Update in flight then waits
	// until Close, and returns an error.
	loop(&owner, 0, increment, false)
	loop(&survivors, 1, increment, true)
	loop(&survivors, 2, readBoth, true)
	loop(&survivors, 3, readBoth, true)

	time.Sleep(30 * time.Millisecond)
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	survivors.Wait()
	c.Close()
	owner.Wait()

	writes := 0
	for _, tx := range hist {
		if tx.Writes != nil {
			writes++
		}
	}
	t.Logf("%d transactions, %d of them writes", len(hist), writes)
	if writes == 0 || writes == len(hist) {
		t.Fatal("the history needs both writes and reads")
	}
	if err := checker.Check(hist); err != nil {
		t.Fatalf("history of %d transactions: %v", len(hist), err)
	}
}

// TestPublicAPICloseCutsAWait: a write on a node cut off from its followers
// (node 0, killed) commits locally and waits for them; Close ends the wait
// with an error that is not a conflict, so an Update does not retry a write
// that may have happened, refuses a transaction begun after it the same way,
// and leaves nothing the calls started running.
func TestPublicAPICloseCutsAWait(t *testing.T) {
	before := runtime.NumGoroutine()
	c := zeus.New(zeus.Options{Nodes: 3})
	c.Seed(1, 0, counterBytes(0))
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- c.Node(0).Update(0, func(tx *zeus.Tx) error { return tx.Set(1, counterBytes(1)) })
	}()
	select {
	case err := <-done:
		t.Fatalf("a write whose followers never heard of it returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	c.Close()
	select {
	case err := <-done:
		if err == nil || zeus.IsConflict(err) {
			t.Fatalf("Update cut short by Close returned %v, want an error that is not a conflict", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the Update waiting")
	}
	// A transaction that begins after Close is refused at once, not retried.
	start := time.Now()
	err := c.Node(1).Update(0, func(tx *zeus.Tx) error { return tx.Set(1, counterBytes(2)) })
	if err == nil || zeus.IsConflict(err) || time.Since(start) > time.Second {
		t.Fatalf("Update on a closed node returned %v after %v, want at once an error that is not a conflict", err, time.Since(start))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before the cluster, %d after it closed:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
