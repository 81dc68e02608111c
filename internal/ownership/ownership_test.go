package ownership

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// fixedDir is the directory.Directory these tests run the engine against:
// one shard, a fixed driver set, always ready.
type fixedDir wire.Bitmap

func (d fixedDir) Shards() int                          { return 1 }
func (d fixedDir) ShardOf(wire.ObjectID) int            { return 0 }
func (d fixedDir) DriversFor(wire.ObjectID) wire.Bitmap { return wire.Bitmap(d) }
func (d fixedDir) Ready(wire.ObjectID) bool             { return true }
func (d fixedDir) DrivesShard(n wire.NodeID, _ wire.ObjectID) bool {
	return wire.Bitmap(d).Contains(n)
}

// tnode bundles one node's ownership stack for tests.
type tnode struct {
	id    wire.NodeID
	st    *store.Store
	eng   *Engine
	tr    transport.Transport
	agent *viewsvc.Agent
	// hasPending, when set, stands in for the commit engine's pending-commit
	// probe (Config.HasPendingCommit).
	hasPending atomic.Pointer[func(wire.ObjectID) bool]
}

type tcluster struct {
	hub   *transport.Hub
	mgr   *viewsvc.Client
	nodes []*tnode
	dirs  wire.Bitmap
}

// config is the engine configuration every test node runs.
func (c *tcluster) config() Config {
	return Config{Directory: fixedDir(c.dirs)}
}

func newTestCluster(t *testing.T, n int) *tcluster { return newAuditedCluster(t, n, 0, nil) }

// newAuditedCluster is newTestCluster with each router dispatching on shards
// goroutines, and with audit (when non-nil) seeing every message an engine
// sends and every message a node's handler is given.
func newAuditedCluster(t *testing.T, n, shards int, audit *moveAudit) *tcluster {
	t.Helper()
	var members wire.Bitmap
	for i := 0; i < n; i++ {
		members = members.Add(wire.NodeID(i))
	}
	dirs := wire.BitmapOf(0, 1, 2)
	if n < 3 {
		dirs = members
	}
	hub := transport.NewHub()
	mgr := viewsvc.NewSelfHosted(viewsvc.Config{Lease: 2 * time.Millisecond}, members)
	t.Cleanup(mgr.Close) // its view-service replicas tick until closed
	c := &tcluster{hub: hub, mgr: mgr, dirs: dirs}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		st := store.New()
		tr := hub.Node(id)
		if audit != nil {
			tr = auditedTransport{tr, audit}
		}
		agent := mgr.Agent(id)
		nd := &tnode{id: id, st: st, tr: tr, agent: agent}
		cfg := c.config()
		cfg.HasPendingCommit = func(obj wire.ObjectID) bool {
			f := nd.hasPending.Load()
			return f != nil && (*f)(obj)
		}
		eng := New(id, st, tr, agent, cfg)
		eng.deadline = 3 * time.Second
		nd.eng = eng
		r := transport.NewRouter()
		eng.Register(r)
		r.EnableSharding(shards)
		t.Cleanup(r.CloseShards)
		tr.SetHandler(r.Dispatch)
		agent.OnChange(func(old, next wire.View, removed wire.Bitmap) {
			if removed.Count() > 0 {
				eng.Pause()
				eng.PruneDead(next.Live)
				// No commit engine in these tests: report done now.
				agent.ReportRecoveryDone(next.Epoch)
			}
		})
		agent.OnRecovered(func(wire.Epoch) { eng.Resume() })
		c.nodes = append(c.nodes, nd)
		t.Cleanup(func() { eng.Close(); tr.Close() })
	}
	return c
}

func (c *tcluster) kill(t *testing.T, id wire.NodeID) {
	t.Helper()
	c.hub.SetDown(id, true)
	before := c.mgr.View().Epoch
	c.mgr.Fail(id)
	if !c.mgr.WaitEpoch(before+1, 2*time.Second) {
		t.Fatal("view change never happened")
	}
	// Let recovery callbacks run.
	deadline := time.Now().Add(2 * time.Second)
	for c.mgr.RecoveryPending() {
		if time.Now().After(deadline) {
			t.Fatal("recovery barrier never closed")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ownersOf returns the set of nodes that believe they own obj.
func (c *tcluster) ownersOf(obj wire.ObjectID) []wire.NodeID {
	var out []wire.NodeID
	for _, nd := range c.nodes {
		if o, ok := nd.st.Get(obj); ok {
			o.Mu.Lock()
			if o.LevelLocked() == wire.Owner {
				out = append(out, nd.id)
			}
			o.Mu.Unlock()
		}
	}
	return out
}

// waitLevel polls until node id reaches level for obj.
func (c *tcluster) waitLevel(t *testing.T, id wire.NodeID, obj wire.ObjectID, lvl wire.AccessLevel) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if o, ok := c.nodes[id].st.Get(obj); ok {
			o.Mu.Lock()
			cur := o.LevelLocked()
			o.Mu.Unlock()
			if cur == lvl {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d never reached %v for obj %d", id, lvl, obj)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func seed(t *testing.T, c *tcluster, owner wire.NodeID, obj wire.ObjectID, readers wire.Bitmap, data []byte) {
	t.Helper()
	if err := c.nodes[owner].eng.Create(obj, readers); err != nil {
		t.Fatalf("create obj %d: %v", obj, err)
	}
	// Install initial data at the owner and readers directly (in the full
	// system the first write transaction replicates it). Readers learn
	// their role at VAL time, so wait for the level to settle first.
	c.waitLevel(t, owner, obj, wire.Owner)
	for _, r := range readers.Nodes() {
		if r != owner {
			c.waitLevel(t, r, obj, wire.Reader)
		}
	}
	for _, nd := range c.nodes {
		o, ok := nd.st.Get(obj)
		if !ok {
			continue
		}
		o.Mu.Lock()
		if o.LevelLocked() != wire.NonReplica {
			// The same grant again, this time with the value.
			o.GrantLocked(nd.id, o.OTSLocked(), o.ReplicasLocked(),
				store.Shipped{Has: true, Version: 1, Data: append([]byte(nil), data...)})
		}
		o.Mu.Unlock()
	}
}

func TestCreateEstablishesOwnerAndReaders(t *testing.T) {
	c := newTestCluster(t, 4)
	if err := c.nodes[3].eng.Create(100, wire.BitmapOf(1)); err != nil {
		t.Fatal(err)
	}
	c.waitLevel(t, 3, 100, wire.Owner)
	c.waitLevel(t, 1, 100, wire.Reader)
	// Directory nodes agree on the replica set (VALs apply asynchronously).
	for _, d := range c.dirs.Nodes() {
		c.waitDir(t, d, 100, func(reps wire.ReplicaSet) bool {
			return reps.Owner == 3 && reps.Readers.Contains(1)
		})
	}
}

// waitDir polls until dir node d's entry for obj is Valid and satisfies ok.
func (c *tcluster) waitDir(t *testing.T, d wire.NodeID, obj wire.ObjectID, ok func(wire.ReplicaSet) bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if o, found := c.nodes[d].st.Get(obj); found {
			o.Mu.Lock()
			st, reps := o.OStateLocked(), o.ReplicasLocked()
			o.Mu.Unlock()
			if st == store.OValid && ok(reps) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("dir node %d never converged for obj %d", d, obj)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestAcquireOwnershipTransfersDataToNonReplica(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 7, wire.BitmapOf(1), []byte("payload"))
	if err := c.nodes[3].eng.AcquireOwnership(7); err != nil {
		t.Fatal(err)
	}
	o, ok := c.nodes[3].st.Get(7)
	if !ok {
		t.Fatal("no object at new owner")
	}
	o.Mu.Lock()
	lvl, data := o.LevelLocked(), string(o.DataLocked())
	o.Mu.Unlock()
	if lvl != wire.Owner {
		t.Fatalf("level = %v", lvl)
	}
	if data != "payload" {
		t.Fatalf("data = %q", data)
	}
	// Previous owner demoted to reader (keeps replica).
	c.waitLevel(t, 0, 7, wire.Reader)
	if owners := c.ownersOf(7); len(owners) != 1 || owners[0] != 3 {
		t.Fatalf("owners = %v", owners)
	}
}

func TestAcquireOwnershipFromReaderNoDataTransfer(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 9, wire.BitmapOf(3), []byte("xyz"))
	c.waitLevel(t, 3, 9, wire.Reader)
	if err := c.nodes[3].eng.AcquireOwnership(9); err != nil {
		t.Fatal(err)
	}
	o, _ := c.nodes[3].st.Get(9)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.LevelLocked() != wire.Owner || string(o.DataLocked()) != "xyz" {
		t.Fatalf("reader-to-owner: %v %q", o.LevelLocked(), o.DataLocked())
	}
}

func TestAcquireReadAddsReplica(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 11, 0, []byte("r"))
	if err := c.nodes[3].eng.AcquireRead(11); err != nil {
		t.Fatal(err)
	}
	o, _ := c.nodes[3].st.Get(11)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.LevelLocked() != wire.Reader || string(o.DataLocked()) != "r" {
		t.Fatalf("got %v %q", o.LevelLocked(), o.DataLocked())
	}
}

func TestFastPathSkipsProtocol(t *testing.T) {
	c := newTestCluster(t, 3)
	seed(t, c, 0, 5, 0, []byte("d"))
	before := c.nodes[0].eng.Stats().Requests
	if err := c.nodes[0].eng.AcquireOwnership(5); err != nil {
		t.Fatal(err)
	}
	if got := c.nodes[0].eng.Stats().Requests; got != before {
		t.Fatalf("owner re-acquire issued %d requests", got-before)
	}
}

func TestUnknownObjectRejected(t *testing.T) {
	c := newTestCluster(t, 3)
	err := c.nodes[2].eng.AcquireOwnership(999)
	if !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
}

func TestContentionSingleWinnerThenBothSucceed(t *testing.T) {
	c := newTestCluster(t, 5)
	seed(t, c, 0, 42, 0, []byte("hot"))
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, id := range []wire.NodeID{3, 4} {
		wg.Add(1)
		go func(slot int, id wire.NodeID) {
			defer wg.Done()
			errs[slot] = c.nodes[id].eng.AcquireOwnership(42)
		}(i, id)
	}
	wg.Wait()
	// Both must eventually succeed (the loser retries with back-off).
	for i, err := range errs {
		if err != nil {
			t.Fatalf("acquirer %d failed: %v", i, err)
		}
	}
	time.Sleep(20 * time.Millisecond) // let trailing VALs apply
	owners := c.ownersOf(42)
	if len(owners) != 1 {
		t.Fatalf("owners = %v, want exactly one", owners)
	}
	if owners[0] != 3 && owners[0] != 4 {
		t.Fatalf("unexpected final owner %d", owners[0])
	}
	// The winner holds the data.
	o, _ := c.nodes[owners[0]].st.Get(42)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if string(o.DataLocked()) != "hot" {
		t.Fatalf("final owner data %q", o.DataLocked())
	}
}

func TestPendingCommitNackThenRetrySucceeds(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 13, 0, []byte("p"))
	var pending atomic.Bool
	pending.Store(true)
	hasPending := func(obj wire.ObjectID) bool { return obj == 13 && pending.Load() }
	c.nodes[0].hasPending.Store(&hasPending)
	// Drain the "pipeline" shortly after the first NACKs.
	time.AfterFunc(10*time.Millisecond, func() { pending.Store(false) })
	if err := c.nodes[3].eng.AcquireOwnership(13); err != nil {
		t.Fatal(err)
	}
	// The requester applies first; the old owner demotes on the async VAL.
	c.waitLevel(t, 0, 13, wire.Reader)
	if owners := c.ownersOf(13); len(owners) != 1 || owners[0] != 3 {
		t.Fatalf("owners = %v", owners)
	}
	if c.nodes[3].eng.Stats().Nacks == 0 && c.nodes[0].eng.Stats().Nacks == 0 {
		t.Log("note: ownership won before first NACK (timing dependent)")
	}
}

func TestDropReaderDiscardsReplica(t *testing.T) {
	c := newTestCluster(t, 5)
	seed(t, c, 0, 21, wire.BitmapOf(3, 4), []byte("z"))
	c.waitLevel(t, 3, 21, wire.Reader)
	if err := c.nodes[0].eng.DropReader(21, 3); err != nil {
		t.Fatal(err)
	}
	c.waitLevel(t, 3, 21, wire.NonReplica)
	o, _ := c.nodes[3].st.Get(21)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.DataLocked() != nil {
		t.Fatalf("dropped reader kept data %q", o.DataLocked())
	}
	// Directory no longer lists node 3 (VAL applies asynchronously).
	c.waitDir(t, 1, 21, func(reps wire.ReplicaSet) bool {
		return !reps.Readers.Contains(3)
	})
}

func TestDeleteRemovesEverywhere(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 33, wire.BitmapOf(3), []byte("gone"))
	c.waitLevel(t, 3, 33, wire.Reader)
	if err := c.nodes[0].eng.Delete(33); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		gone := true
		if o, ok := c.nodes[3].st.Get(33); ok {
			o.Mu.Lock()
			if o.LevelLocked() != wire.NonReplica || o.DataLocked() != nil {
				gone = false
			}
			o.Mu.Unlock()
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica not discarded after delete")
		}
		time.Sleep(time.Millisecond)
	}
	// Re-acquiring a deleted object fails as unknown.
	if err := c.nodes[2].eng.AcquireOwnership(33); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("post-delete acquire: %v", err)
	}
}

func TestOwnerDeathNewOwnerTakesOverFromReader(t *testing.T) {
	c := newTestCluster(t, 5)
	seed(t, c, 4, 55, wire.BitmapOf(3), []byte("survivor"))
	c.waitLevel(t, 3, 55, wire.Reader)
	c.kill(t, 4)
	// Directory pruned the dead owner.
	o, _ := c.nodes[0].st.Get(55)
	o.Mu.Lock()
	if o.ReplicasLocked().Owner != wire.NoNode {
		t.Fatalf("dead owner still recorded: %v", o.ReplicasLocked())
	}
	o.Mu.Unlock()
	// A non-replica node takes over; data is sourced from the reader.
	if err := c.nodes[2].eng.AcquireOwnership(55); err != nil {
		t.Fatal(err)
	}
	no, _ := c.nodes[2].st.Get(55)
	no.Mu.Lock()
	defer no.Mu.Unlock()
	if no.LevelLocked() != wire.Owner || string(no.DataLocked()) != "survivor" {
		t.Fatalf("takeover failed: %v %q", no.LevelLocked(), no.DataLocked())
	}
}

func TestArbReplayCompletesOrphanedRequest(t *testing.T) {
	c := newTestCluster(t, 5)
	seed(t, c, 0, 77, 0, []byte("orphan"))
	// Manufacture a half-finished arbitration: requester node 4 was granted
	// ownership (INVs applied at all arbiters) but died before sending VALs.
	ts := wire.OTS{Ver: 2, Node: 1}
	newReps := wire.ReplicaSet{Owner: 4, Readers: wire.BitmapOf(0)}
	pend := store.PendingOwn{
		ReqID: uint64(4)<<48 | 1, TS: ts, Requester: 4, Driver: 1,
		Mode: wire.AcquireOwner, NewReplicas: newReps, PrevOwner: 0,
		Arbiters: wire.BitmapOf(0, 1, 2), Epoch: 1,
	}
	for _, id := range []wire.NodeID{0, 1, 2} {
		o, _ := c.nodes[id].st.Get(77)
		o.Mu.Lock()
		o.InvalidateLocked(pend, id)
		o.Mu.Unlock()
	}
	c.kill(t, 4) // triggers Pause → PruneDead → Resume → ArbReplayAll
	deadline := time.Now().Add(2 * time.Second)
	for {
		ok := true
		for _, id := range []wire.NodeID{0, 1, 2} {
			o, _ := c.nodes[id].st.Get(77)
			o.Mu.Lock()
			if _, arbitrating := o.PendingLocked(); arbitrating || o.OStateLocked() != store.OValid {
				ok = false
			}
			o.Mu.Unlock()
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("arb-replay never validated the arbiters")
		}
		time.Sleep(time.Millisecond)
	}
	// The request applied: replicas pruned of the dead requester show no
	// owner, and node 0 retains its replica as reader.
	o, _ := c.nodes[1].st.Get(77)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.ReplicasLocked().Owner == 4 {
		t.Fatalf("dead node still owner: %v", o.ReplicasLocked())
	}
	if replays := c.nodes[0].eng.Stats().Replays + c.nodes[1].eng.Stats().Replays +
		c.nodes[2].eng.Stats().Replays; replays == 0 {
		t.Fatal("no arb-replays recorded")
	}
}

func TestRecoveringNacksNewRequests(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 88, 0, []byte("x"))
	for _, nd := range c.nodes {
		nd.eng.Pause()
	}
	cfgErr := make(chan error, 1)
	go func() { cfgErr <- c.nodes[3].eng.AcquireOwnership(88) }()
	time.Sleep(10 * time.Millisecond)
	for _, nd := range c.nodes {
		nd.eng.Resume()
	}
	if err := <-cfgErr; err != nil {
		t.Fatalf("acquire after resume failed: %v", err)
	}
}

func TestOwnershipLatencyHook(t *testing.T) {
	c := newTestCluster(t, 4)
	var mu sync.Mutex
	var lats []time.Duration
	c.nodes[3].eng.cfg.OnLatency = func(d time.Duration) {
		mu.Lock()
		lats = append(lats, d)
		mu.Unlock()
	}
	seed(t, c, 0, 91, 0, []byte("lat"))
	if err := c.nodes[3].eng.AcquireOwnership(91); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lats) != 1 || lats[0] <= 0 {
		t.Fatalf("latencies = %v", lats)
	}
}

func TestManyObjectsBulkMigration(t *testing.T) {
	c := newTestCluster(t, 4)
	const N = 200
	for i := 0; i < N; i++ {
		seed(t, c, 0, wire.ObjectID(1000+i), 0, []byte{byte(i)})
	}
	// Move everything to node 3 (the Voter Figure 10 pattern).
	for i := 0; i < N; i++ {
		if err := c.nodes[3].eng.AcquireOwnership(wire.ObjectID(1000 + i)); err != nil {
			t.Fatalf("obj %d: %v", i, err)
		}
	}
	for i := 0; i < N; i++ {
		// The old owner demotes on the async VAL; poll briefly.
		deadline := time.Now().Add(2 * time.Second)
		for {
			owners := c.ownersOf(wire.ObjectID(1000 + i))
			if len(owners) == 1 && owners[0] == 3 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("obj %d owners = %v", i, owners)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestInvariantSingleOwnerUnderChurn(t *testing.T) {
	c := newTestCluster(t, 5)
	const objs = 20
	for i := 0; i < objs; i++ {
		seed(t, c, 0, wire.ObjectID(i), 0, []byte(fmt.Sprintf("v%d", i)))
	}
	var wg sync.WaitGroup
	for _, id := range []wire.NodeID{1, 2, 3, 4} {
		wg.Add(1)
		go func(id wire.NodeID) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				obj := wire.ObjectID((round + int(id)) % objs)
				_ = c.nodes[id].eng.AcquireOwnership(obj)
			}
		}(id)
	}
	wg.Wait()
	time.Sleep(30 * time.Millisecond) // let VALs quiesce
	for i := 0; i < objs; i++ {
		owners := c.ownersOf(wire.ObjectID(i))
		if len(owners) > 1 {
			t.Fatalf("obj %d has %d owners: %v", i, len(owners), owners)
		}
		// Valid directory entries agree with each other.
		var reps []wire.ReplicaSet
		for _, d := range c.dirs.Nodes() {
			o, ok := c.nodes[d].st.Get(wire.ObjectID(i))
			if !ok {
				continue
			}
			o.Mu.Lock()
			if o.OStateLocked() == store.OValid {
				reps = append(reps, o.ReplicasLocked())
			}
			o.Mu.Unlock()
		}
		for j := 1; j < len(reps); j++ {
			if reps[j] != reps[0] {
				t.Fatalf("obj %d: dir disagreement %v vs %v", i, reps[0], reps[j])
			}
		}
		// The owner recorded by a valid directory entry holds Owner level.
		if len(reps) > 0 && reps[0].Owner != wire.NoNode {
			o, ok := c.nodes[reps[0].Owner].st.Get(wire.ObjectID(i))
			if !ok {
				t.Fatalf("obj %d: directory owner %d has no object", i, reps[0].Owner)
			}
			o.Mu.Lock()
			lvl := o.LevelLocked()
			o.Mu.Unlock()
			if lvl != wire.Owner {
				t.Fatalf("obj %d: directory owner %d at level %v", i, reps[0].Owner, lvl)
			}
		}
	}
}

// settled waits until obj's move to newOwner is validated everywhere: every
// VAL sent and applied.
func (c *tcluster) settled(t *testing.T, obj wire.ObjectID, newOwner wire.NodeID) {
	t.Helper()
	for _, nd := range c.nodes {
		if _, ok := nd.st.Get(obj); ok {
			c.waitDir(t, nd.id, obj, func(reps wire.ReplicaSet) bool { return reps.Owner == newOwner })
		}
	}
}

// The protocol steps a node addresses to itself are function calls, so a move
// costs exactly the messages the protocol requires, whoever drives it.
func TestMoveSendsOnlyTheRequiredMessages(t *testing.T) {
	for _, tc := range []struct {
		name      string
		nodes     int
		requester wire.NodeID
		want      uint64
	}{
		// Requester = driver = arbiter: 2 INV, 2 ACK, 2 VAL.
		{"requester drives", 3, 2, 6},
		// Requester outside the shard's drivers: REQ, 2 INV, 3 ACK, 3 VAL.
		{"requester does not drive", 5, 4, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, tc.nodes)
			seed(t, c, 0, 70, 0, []byte("m"))
			c.settled(t, 70, 0)
			if got := c.nodes[tc.requester].eng.DrivesShard(tc.requester, 70); got != (tc.nodes == 3) {
				t.Fatalf("requester drives the shard: %v", got)
			}
			before := c.hub.Messages()
			if err := c.nodes[tc.requester].eng.AcquireOwnership(70); err != nil {
				t.Fatal(err)
			}
			c.settled(t, 70, tc.requester)
			if got := c.hub.Messages() - before; got != tc.want {
				t.Fatalf("move took %d messages, want %d", got, tc.want)
			}
			if s := c.nodes[tc.requester].eng.Stats(); s.Requests != 1 || s.Succeeded != 1 {
				t.Fatalf("stats = %+v, want one request, one success", s)
			}
		})
	}
}

// A driver's refusal reaches a requester on the same node as the same NACK it
// would send over the wire.
func TestNackToSelf(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 1, 71, 0, []byte("n"))
	for _, tc := range []struct {
		name   string
		node   wire.NodeID
		arm    func(e *Engine, m *wire.OwnReq)
		reason wire.NackReason
	}{
		{"paused", 0, func(e *Engine, _ *wire.OwnReq) { e.Pause() }, wire.NackRecovering},
		{"wrong epoch", 0, func(_ *Engine, m *wire.OwnReq) { m.Epoch++ }, wire.NackWrongEpoch},
		{"not driver", 3, func(*Engine, *wire.OwnReq) {}, wire.NackNotDriver},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := c.nodes[tc.node].eng
			req, id := e.beginRequest(wire.AcquireOwner)
			defer e.endRequest(req)
			m := &wire.OwnReq{
				ReqID: id, Obj: 71, Requester: e.self, Mode: wire.AcquireOwner,
				Epoch: e.agent.Epoch(), Shard: uint32(e.dir.ShardOf(71)),
			}
			tc.arm(e, m)
			defer e.recovering.Store(false)
			e.Handle(e.self, m)
			out, timedOut, err := e.await(req, id)
			if err != nil || timedOut {
				t.Fatalf("no outcome: timedOut=%v err=%v", timedOut, err)
			}
			if out.ok || out.reason != tc.reason || out.from != e.self {
				t.Fatalf("outcome = %+v, want a %v NACK from node %d", out, tc.reason, e.self)
			}
		})
	}
}

func TestPausedEngineAbortsLocalRequester(t *testing.T) {
	c := newTestCluster(t, 3)
	seed(t, c, 1, 72, 0, []byte("p"))
	e := c.nodes[0].eng
	e.deadline = 20 * time.Millisecond
	e.Pause()
	err := e.AcquireOwnership(72)
	if !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), wire.NackRecovering.String()) {
		t.Fatalf("err = %v, want ErrAborted (%v)", err, wire.NackRecovering)
	}
	if s := e.Stats(); s.Succeeded != 0 || s.Timeouts != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// AcquireOwnershipBy gives up at its own deadline when that comes before the
// engine's.
func TestAcquireOwnershipByGivesUpAtItsDeadline(t *testing.T) {
	c := newTestCluster(t, 3)
	seed(t, c, 1, 72, 0, []byte("p"))
	e := c.nodes[0].eng
	e.deadline = time.Hour
	e.Pause()
	start := time.Now()
	if err := e.AcquireOwnershipBy(72, start.Add(20*time.Millisecond)); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("gave up after %v, 20 ms asked", d)
	}
}

// blockedAcquire starts e.AcquireOwnership(obj) with every other node cut
// off, and returns once the request is collecting ACKs: its own is in, the
// rest can never come.
func blockedAcquire(t *testing.T, c *tcluster, e *Engine, obj wire.ObjectID) (*pendingReq, <-chan error) {
	t.Helper()
	for _, nd := range c.nodes {
		c.hub.SetDown(nd.id, nd.eng != e)
	}
	errc := make(chan error, 1)
	go func() { errc <- e.AcquireOwnership(obj) }()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var req *pendingReq
		e.pending.Range(func(_ uint64, r *pendingReq) bool { req = r; return false })
		if req != nil {
			req.mu.Lock()
			collecting := req.acked.Contains(e.self)
			req.mu.Unlock()
			if collecting {
				return req, errc
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("acquisition never started collecting ACKs")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// A request record is reused by the next acquisition. A handler that resolved
// it under the finished request's id must not touch the new request.
func TestLateMessagesLeaveReusedRecordAlone(t *testing.T) {
	c := newTestCluster(t, 3)
	seed(t, c, 1, 80, 0, []byte("a"))
	seed(t, c, 1, 81, 0, []byte("b"))
	e := c.nodes[0].eng
	e.attemptTimeout = 10 * time.Second // the blocked attempt must not expire under the test
	e.deadline = 20 * time.Second

	if err := e.AcquireOwnership(80); err != nil {
		t.Fatal(err)
	}
	c.settled(t, 80, 0)
	finished := uint64(e.self)<<48 | e.nextReq.Load()
	if len(e.free) != 1 {
		t.Fatalf("%d parked records after one acquisition", len(e.free))
	}
	parked := e.free[0]

	req, errc := blockedAcquire(t, c, e, 81)
	if req != parked {
		t.Fatal("second acquisition did not reuse the first one's record")
	}
	req.mu.Lock()
	current, before := req.id, req.ackSet
	req.mu.Unlock()

	// What a handler holds that looked the record up just before the first
	// request was retired.
	e.pending.Put(finished, req)
	o, _ := c.nodes[0].st.Get(80)
	o.Mu.Lock()
	ts, reps := o.OTSLocked(), o.ReplicasLocked()
	o.Mu.Unlock()
	epoch := e.agent.Epoch()
	e.Handle(1, &wire.OwnNack{ReqID: finished, Obj: 80, Epoch: epoch, From: 1, Reason: wire.NackLostArbitration})
	e.Handle(1, &wire.OwnAck{
		ReqID: finished, Obj: 80, TS: wire.OTS{Ver: ts.Ver + 5, Node: 1}, Epoch: epoch, From: 1,
		Arbiters: wire.BitmapOf(0, 1), NewReplicas: reps, Mode: wire.AcquireOwner,
	})
	e.Handle(1, &wire.OwnResp{
		ReqID: finished, Obj: 80, TS: ts, Epoch: epoch, Driver: 1,
		NewReplicas: reps, Mode: wire.AcquireOwner,
	})
	e.pending.Delete(finished)

	req.mu.Lock()
	after, id := req.ackSet, req.id
	req.mu.Unlock()
	if id != current || !reflect.DeepEqual(after, before) {
		t.Fatalf("late messages changed the record: id %d → %d, ACK set %+v → %+v", current, id, before, after)
	}
	select {
	case out := <-req.done:
		t.Fatalf("late messages produced outcome %+v", out)
	case err := <-errc:
		t.Fatalf("late messages finished the acquisition: %v", err)
	default:
	}

	// The same messages under the current id do count: with the fabric back,
	// an owner-busy NACK makes run re-send the request, which now completes.
	for _, nd := range c.nodes {
		c.hub.SetDown(nd.id, false)
	}
	e.Handle(1, &wire.OwnNack{ReqID: current, Obj: 81, Epoch: epoch, From: 1, Reason: wire.NackPendingCommit})
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if owners := c.ownersOf(81); len(owners) != 1 || owners[0] != 0 {
		t.Fatalf("owners = %v", owners)
	}
}

// The engine runs on its callers' goroutines and owns none: New starts
// nothing, and Close only has to release the acquisitions blocked in it.
func TestCloseReleasesBlockedAcquireAndEngineOwnsNoGoroutine(t *testing.T) {
	c := newTestCluster(t, 3)
	seed(t, c, 1, 90, 0, []byte("c"))
	nd := c.nodes[0]

	idle := runtime.NumGoroutine()
	spare := New(nd.id, store.New(), nd.tr, nd.agent, c.config())
	if got := runtime.NumGoroutine(); got != idle {
		t.Fatalf("New started %d goroutines", got-idle)
	}
	spare.Close()

	_, errc := blockedAcquire(t, c, nd.eng, 90)
	nd.eng.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := nd.eng.AcquireOwnership(90); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire on a closed engine: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > idle {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-idle)
		}
		time.Sleep(time.Millisecond)
	}
}

// auditedTransport shows a moveAudit both ends of a node's traffic.
type auditedTransport struct {
	transport.Transport
	audit *moveAudit
}

func (a auditedTransport) Send(to wire.NodeID, m wire.Msg) error {
	a.audit.sent(a.Self(), to, m)
	return a.Transport.Send(to, m)
}

func (a auditedTransport) SetHandler(h transport.Handler) {
	a.Transport.SetHandler(func(from wire.NodeID, m wire.Msg) {
		a.audit.received(from, a.Self(), m)
		h(from, m)
	})
}

// moveAudit checks that the chunked message records of a move are handed out
// once, and that a handler is given exactly the records sent to its node: the
// hub delivers the sender's record itself. It keeps every record it has seen
// reachable, so an address cannot come back through the allocator: a pointer
// emitted again with other content is a record handed out twice.
type moveAudit struct {
	mu sync.Mutex
	// asking counts, per node and object, the requesters inside an
	// AcquireOwnership call: a self-driven INV is for one of them.
	asking map[wire.NodeID]map[wire.ObjectID]int
	// issued is the ⟨object, o_ts⟩ pairs each request id was arbitrated
	// with, taken from the INVs as their drivers sent them.
	issued map[uint64]map[string]bool
	// records maps every chunked record sent to its content when first
	// sent; inFlight counts, per destination, the sends of each record not
	// yet received.
	records  map[wire.Msg]string
	inFlight map[wire.NodeID]map[wire.Msg]int
	errs     []string
}

func newMoveAudit() *moveAudit {
	return &moveAudit{
		asking:   map[wire.NodeID]map[wire.ObjectID]int{},
		issued:   map[uint64]map[string]bool{},
		records:  map[wire.Msg]string{},
		inFlight: map[wire.NodeID]map[wire.Msg]int{},
	}
}

func (a *moveAudit) errorf(format string, args ...any) {
	if len(a.errs) < 10 {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

// ask brackets one AcquireOwnership call of a requester on node n.
func (a *moveAudit) ask(n wire.NodeID, obj wire.ObjectID, delta int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.asking[n] == nil {
		a.asking[n] = map[wire.ObjectID]int{}
	}
	a.asking[n][obj] += delta
}

// arbitration is what ties a message to a request: ⟨id, object, o_ts⟩.
func arbitration(m wire.Msg) (id uint64, key string, ok bool) {
	switch v := m.(type) {
	case *wire.OwnInv:
		return v.ReqID, fmt.Sprint(v.Obj, v.TS), true
	case *wire.OwnAck:
		return v.ReqID, fmt.Sprint(v.Obj, v.TS), true
	case *wire.OwnVal:
		return v.ReqID, fmt.Sprint(v.Obj, v.TS), true
	}
	return 0, "", false
}

func (a *moveAudit) sent(from, to wire.NodeID, m wire.Msg) {
	id, key, ok := arbitration(m)
	if !ok {
		return
	}
	content := fmt.Sprintf("%T%+v", m, m)
	a.mu.Lock()
	defer a.mu.Unlock()
	// The same record goes to each arbiter in turn, unchanged; anything else
	// under this address is a second hand-out.
	if first, seen := a.records[m]; seen && first != content {
		a.errorf("node %d emitted record %p twice: as %s, then as %s", from, m, first, content)
	}
	a.records[m] = content
	if inv, isInv := m.(*wire.OwnInv); isInv && !inv.Recovery {
		if inv.Driver != from || inv.TS.Node != from || wire.NodeID(id>>48) != inv.Requester {
			a.errorf("node %d sent an INV that is not its own arbitration: %s", from, content)
		}
		if inv.Mode == wire.AcquireOwner && inv.Requester == from && a.asking[from][inv.Obj] == 0 {
			a.errorf("node %d drove %s for an object no local requester is asking for", from, content)
		}
		if a.issued[id] == nil {
			a.issued[id] = map[string]bool{}
		}
		a.issued[id][key] = true
	} else if !a.issued[id][key] {
		a.errorf("node %d sent %s, which matches no issued arbitration", from, content)
	}
	if a.inFlight[to] == nil {
		a.inFlight[to] = map[wire.Msg]int{}
	}
	a.inFlight[to][m]++
}

func (a *moveAudit) received(from, to wire.NodeID, m wire.Msg) {
	id, key, ok := arbitration(m)
	if !ok {
		return
	}
	content := fmt.Sprintf("%T%+v", m, m)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inFlight[to][m] == 0 {
		a.errorf("node %d received record %p (%s) from %d, which nobody sent it", to, m, content, from)
	}
	a.inFlight[to][m]--
	if sent := a.records[m]; sent != content {
		a.errorf("node %d received record %p as %s; it was sent as %s", to, m, content, sent)
	}
	if !a.issued[id][key] {
		a.errorf("node %d received %s, which matches no issued arbitration", to, content)
	}
}

// TestRecordsAreHandedOutOnce: movers on all three nodes bounce eight objects
// at once, so each engine's emission chunks are hit by two requester
// goroutines (INVs) and four shard goroutines (ACKs, VALs) together. Every
// INV, ACK and VAL a handler is given must be a record some engine sent to
// its node, carrying field for field what it carried when sent, and the
// ⟨request id, object, o_ts⟩ of an arbitration a driver actually issued for a
// requester that was asking. Run under -race, where two fills of one record
// are also a reported write-write race.
func TestRecordsAreHandedOutOnce(t *testing.T) {
	audit := newMoveAudit()
	c := newAuditedCluster(t, 3, 4, audit)
	const objs, rounds = 8, 300
	for i := 0; i < objs; i++ {
		seed(t, c, 0, wire.ObjectID(100+i), wire.BitmapOf(1, 2), []byte("r"))
	}
	var wg sync.WaitGroup
	var moves, refused atomic.Int64
	for _, nd := range c.nodes {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(nd *tnode, g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					obj := wire.ObjectID(100 + (i*2+g+int(nd.id)*3)%objs)
					audit.ask(nd.id, obj, +1)
					err := nd.eng.AcquireOwnership(obj)
					audit.ask(nd.id, obj, -1)
					switch {
					case err == nil:
						moves.Add(1)
					case errors.Is(err, ErrAborted) || errors.Is(err, ErrTimeout):
						refused.Add(1) // contention outlasted the deadline: a lost record cannot hide here, see below
					default:
						t.Errorf("node %d, object %d: %v", nd.id, obj, err)
					}
				}
			}(nd, g)
		}
	}
	wg.Wait()
	for i := 0; i < objs; i++ { // the last VALs land: every node agrees on the owner
		obj := wire.ObjectID(100 + i)
		deadline := time.Now().Add(2 * time.Second)
		for len(c.ownersOf(obj)) != 1 && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
		if owners := c.ownersOf(obj); len(owners) != 1 {
			t.Errorf("object %d has owners %v", obj, owners)
		}
	}
	audit.mu.Lock()
	defer audit.mu.Unlock()
	for _, e := range audit.errs {
		t.Error(e)
	}
	// A record lost to a double hand-out would leave an ACK set incomplete:
	// the attempt would time out, not be refused.
	var timeouts, requests uint64
	for _, nd := range c.nodes {
		st := nd.eng.Stats()
		timeouts, requests = timeouts+st.Timeouts, requests+st.Requests
	}
	if timeouts != 0 {
		t.Errorf("%d attempts timed out: a message of theirs never arrived", timeouts)
	}
	t.Logf("%d acquisitions (%d refused) took %d requests; %d records audited", moves.Load(), refused.Load(), requests, len(audit.records))
}
