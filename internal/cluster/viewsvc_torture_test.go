package cluster

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/checker"
	"zeus/internal/dbapi"
	"zeus/internal/netsim"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// tortureOpts builds a 4-node FabricSim cluster with a lossy fabric and a
// fast-failover view service: a 3ms lease, the 2ms heartbeat it derives
// (Lease/2 clamped to [2ms, 25ms]) and a 15ms takeover, set here because the
// derived one would be 12ms.
func tortureOpts() Options {
	opts := DefaultOptions(4)
	opts.Fabric = FabricSim
	opts.Workers = 2
	opts.Net = netsim.Config{
		Seed:       23,
		MinLatency: 2 * time.Microsecond,
		MaxLatency: 50 * time.Microsecond,
		LossProb:   0.02,
		DupProb:    0.01,
		InboxDepth: 1 << 14,
	}
	opts.View = viewsvc.Config{
		Lease:         3 * time.Millisecond,
		TakeoverAfter: 15 * time.Millisecond,
	}
	return opts
}

// waitLeader polls until some replica other than exclude claims leadership.
func waitLeader(t *testing.T, c *Cluster, exclude int, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if li := c.ViewService().LeaderIndex(); li >= 0 && li != exclude {
			return li
		}
		if time.Now().After(deadline) {
			t.Fatalf("no view-service leader (excluding %d)", exclude)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestViewServiceLeaderFailover is the membership-churn torture test: it
// crashes the view-service LEADER while KillOwnerUnderLoad-style traffic
// runs, requires a ballot takeover by a surviving replica, then kills a data
// node (the hot object's owner) THROUGH the new leader and checks that
//
//   - epochs observed by the data plane stay strictly monotonic,
//   - the dead node's lease expires before the view installs,
//   - the recovery barrier completes,
//   - no committed increment is lost and the recorded history is strictly
//     serializable per internal/checker.
func TestViewServiceLeaderFailover(t *testing.T) {
	c := New(tortureOpts())
	defer c.Close()
	// Counter seeded so that value == t_version: every committed increment
	// bumps both by one, giving the checker exact read/write footprints.
	c.Seed(1, 3, wire.BitmapOf(0, 1), u64c(1))

	// Epoch/install observer on a survivor's agent.
	type install struct {
		epoch   wire.Epoch
		removed wire.Bitmap
		at      time.Time
	}
	var instMu sync.Mutex
	var installs []install
	c.Node(0).Agent().OnChange(func(_, next wire.View, removed wire.Bitmap) {
		instMu.Lock()
		installs = append(installs, install{epoch: next.Epoch, removed: removed, at: time.Now()})
		instMu.Unlock()
	})

	// KillOwnerUnderLoad-style traffic with a checker history.
	var hmu sync.Mutex
	var history []checker.Tx
	var committed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				var read uint64
				start := time.Now().UnixNano()
				err := dbapi.Run(db, node, func(tx dbapi.Txn) error {
					v, err := tx.Get(1)
					if err != nil {
						return err
					}
					read = fromU64c(v)
					return tx.Set(1, u64c(read+1))
				})
				if err != nil {
					continue
				}
				end := time.Now().UnixNano()
				committed.Add(1)
				hmu.Lock()
				history = append(history, checker.Tx{
					ID: len(history), Start: start, End: end,
					Reads:  []checker.Access{{Obj: 1, Ver: read}},
					Writes: []checker.Access{{Obj: 1, Ver: read + 1}},
				})
				hmu.Unlock()
			}
		}(node)
	}

	time.Sleep(10 * time.Millisecond)

	// Crash the view-service leader mid-load and wait for the takeover.
	leader := waitLeader(t, c, -1, 5*time.Second)
	if err := c.KillViewReplica(leader); err != nil {
		t.Fatal(err)
	}
	waitLeader(t, c, leader, 5*time.Second)

	// Keep load running through the takeover window.
	time.Sleep(10 * time.Millisecond)

	// Now kill the hot object's owner. The view change, lease wait and
	// recovery barrier must all flow through the NEW view leader. Renew the
	// node's lease first so lease-before-install is measurable.
	c.Node(3).Agent().Renew()
	lease := c.opts.View.Lease
	killStart := time.Now()
	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}
	if c.mgr.RecoveryPending() {
		t.Fatal("recovery barrier still open after Kill returned")
	}

	time.Sleep(15 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Lease-before-install: the view removing node 3 must not install
	// before the (just renewed) lease ran out.
	instMu.Lock()
	var killInstall *install
	for i := range installs {
		if installs[i].removed.Contains(3) {
			killInstall = &installs[i]
			break
		}
	}
	epochs := make([]wire.Epoch, len(installs))
	for i, in := range installs {
		epochs[i] = in.epoch
	}
	instMu.Unlock()
	if killInstall == nil {
		t.Fatalf("no view install removed node 3 (installs: %v)", epochs)
	}
	if early := killInstall.at.Sub(killStart); early < lease*7/10 {
		t.Fatalf("view removing node 3 installed after only %v (lease %v)", early, lease)
	}

	// Epoch monotonicity at the data plane.
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("epochs not strictly monotonic: %v", epochs)
		}
	}

	// No lost updates: the counter equals the committed count (counter
	// starts at 1, value == version).
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
		// The carried-over pending-commit wedge flake dies here after
		// exhausting NackPendingCommit retries; leave a trace.
		c.WedgeDump(os.Stderr, "leader-takeover final read: "+err.Error())
		t.Fatal(err)
	}
	if final != committed.Load()+1 {
		t.Fatalf("lost updates across failover: counter=%d committed=%d", final, committed.Load())
	}
	if committed.Load() == 0 {
		t.Fatal("no transactions committed at all")
	}

	// Strict serializability of the committed history.
	hmu.Lock()
	defer hmu.Unlock()
	checkHistory(t, history, nil)
}

// TestViewServiceFollowerCrashUnderLoad kills a non-leader view replica
// mid-load: no takeover is needed, the quorum survives, and a data-node kill
// keeps working.
func TestViewServiceFollowerCrashUnderLoad(t *testing.T) {
	c := New(tortureOpts())
	defer c.Close()
	c.Seed(1, 3, wire.BitmapOf(0, 1), u64c(0))

	var committed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				if err := dbapi.Run(db, node, func(tx dbapi.Txn) error {
					v, err := tx.Get(1)
					if err != nil {
						return err
					}
					return tx.Set(1, u64c(fromU64c(v)+1))
				}); err == nil {
					committed.Add(1)
				}
			}
		}(node)
	}

	time.Sleep(5 * time.Millisecond)
	leader := waitLeader(t, c, -1, 5*time.Second)
	if err := c.KillViewReplica((leader + 2) % 3); err != nil { // a follower
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	var final uint64
	if err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(1)
		if err != nil {
			return err
		}
		final = fromU64c(v)
		return tx.Set(1, v)
	}); err != nil {
		// The carried-over pending-commit wedge flake dies here after
		// exhausting NackPendingCommit retries; leave a trace.
		c.WedgeDump(os.Stderr, "follower-crash final read: "+err.Error())
		t.Fatal(err)
	}
	if final != committed.Load() {
		t.Fatalf("lost updates: counter=%d committed=%d", final, committed.Load())
	}
	if waitLeader(t, c, -1, time.Second) < 0 {
		t.Fatal("quorum lost after a single follower crash")
	}
}
