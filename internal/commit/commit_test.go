package commit

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"zeus/internal/storage"
	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

type tnode struct {
	id    wire.NodeID
	st    *store.Store
	eng   *Engine
	tr    transport.Transport
	agent *viewsvc.Agent
}

type tcluster struct {
	hub   *transport.Hub
	mgr   *viewsvc.Client
	nodes []*tnode
}

func newTestCluster(t *testing.T, n int) *tcluster {
	t.Helper()
	return newTestClusterWith(t, n, func(wire.NodeID) Config { return Config{} })
}

// onNode gives node id the engine Config cfg and every other node the zero
// Config.
func onNode(id wire.NodeID, cfg Config) func(wire.NodeID) Config {
	return func(n wire.NodeID) Config {
		if n == id {
			return cfg
		}
		return Config{}
	}
}

// newTestClusterWith builds the cluster with a per-node engine Config.
func newTestClusterWith(t *testing.T, n int, cfg func(wire.NodeID) Config) *tcluster {
	t.Helper()
	var members wire.Bitmap
	for i := 0; i < n; i++ {
		members = members.Add(wire.NodeID(i))
	}
	hub := transport.NewHub()
	mgr := viewsvc.NewSelfHosted(viewsvc.Config{Lease: 2 * time.Millisecond}, members)
	t.Cleanup(mgr.Close)
	c := &tcluster{hub: hub, mgr: mgr}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		st := store.New()
		tr := hub.Node(id)
		agent := mgr.Agent(id)
		eng := New(id, st, tr, agent, cfg(id))
		r := transport.NewRouter()
		eng.Register(r)
		tr.SetHandler(r.Dispatch)
		tr.SetTickHandler(r.Tick)
		agent.OnChange(func(old, next wire.View, removed wire.Bitmap) {
			eng.OnViewChange(next, removed)
		})
		c.nodes = append(c.nodes, &tnode{id: id, st: st, eng: eng, tr: tr, agent: agent})
		t.Cleanup(func() { tr.Close() })
	}
	return c
}

// seedObject installs an object at the owner and its readers with version 0.
func (c *tcluster) seedObject(obj wire.ObjectID, owner wire.NodeID, readers wire.Bitmap) {
	reps := wire.ReplicaSet{Owner: owner, Readers: readers.Remove(owner)}
	for _, nd := range c.nodes {
		if reps.LevelOf(nd.id) == wire.NonReplica {
			continue
		}
		o, _ := nd.st.GetOrCreate(obj)
		o.Mu.Lock()
		o.GrantLocked(nd.id, wire.OTS{Ver: 1, Node: owner}, reps, store.Shipped{})
		o.Mu.Unlock()
	}
}

// localWrite performs the local-commit part of a write transaction at the
// owner (what internal/core does) and hands it to the reliable commit.
func (c *tcluster) localWrite(owner wire.NodeID, w wire.Worker, objs []wire.ObjectID, val string) (wire.TxID, <-chan struct{}) {
	s := c.localCommit(owner, w, objs, val)
	return s.Tx(), s.Done()
}

// localCommit is localWrite returning the slot itself (localWrite asks it
// for its Done channel, which is itself under test in slot_test.go).
func (c *tcluster) localCommit(owner wire.NodeID, w wire.Worker, objs []wire.ObjectID, val string) *Slot {
	nd := c.nodes[owner]
	var updates []wire.Update
	var followers wire.Bitmap
	for _, id := range objs {
		o, _ := nd.st.Get(id)
		o.Mu.Lock()
		ver := o.StageLocked([]byte(val))
		o.PendingCommits.Add(1)
		updates = append(updates, wire.Update{Obj: id, Version: ver, Data: []byte(val)})
		followers = followers.Union(o.ReplicasLocked().Readers)
		o.Mu.Unlock()
	}
	return nd.eng.Commit(w, updates, followers, nil)
}

func (c *tcluster) waitValid(t *testing.T, node wire.NodeID, obj wire.ObjectID, wantVer uint64, wantData string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if o, ok := c.nodes[node].st.Get(obj); ok {
			o.Mu.Lock()
			st, ver, data := o.TState(), o.TVersion(), string(o.DataLocked())
			o.Mu.Unlock()
			if st == store.TValid && ver == wantVer && data == wantData {
				return
			}
		}
		if time.Now().After(deadline) {
			o, _ := c.nodes[node].st.Get(obj)
			o.Mu.Lock()
			t.Fatalf("node %d obj %d never reached Valid v%d %q (now %v v%d %q)",
				node, obj, wantVer, wantData, o.TState(), o.TVersion(), o.DataLocked())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestReliableCommitReplicates(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(1, 0, wire.BitmapOf(1, 2))
	_, done := c.localWrite(0, 0, []wire.ObjectID{1}, "v1")
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("commit never validated")
	}
	for _, n := range []wire.NodeID{0, 1, 2} {
		c.waitValid(t, n, 1, 1, "v1")
	}
	if c.nodes[0].eng.HasPending(1) {
		t.Fatal("pending flag stuck after validation")
	}
}

func TestMultiObjectCommitUnionFollowers(t *testing.T) {
	c := newTestCluster(t, 4)
	c.seedObject(1, 0, wire.BitmapOf(1))
	c.seedObject(2, 0, wire.BitmapOf(2))
	_, done := c.localWrite(0, 0, []wire.ObjectID{1, 2}, "both")
	<-done
	c.waitValid(t, 1, 1, 1, "both")
	c.waitValid(t, 2, 2, 1, "both")
	// Node 3 is not a replica of either object.
	if _, ok := c.nodes[3].st.Get(1); ok {
		t.Fatal("non-replica received data")
	}
}

func TestPipelineOrderAndPendingCounts(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(5, 0, wire.BitmapOf(1, 2))
	const N = 50
	var last <-chan struct{}
	for i := 1; i <= N; i++ {
		_, done := c.localWrite(0, 0, []wire.ObjectID{5}, fmt.Sprintf("v%d", i))
		last = done
	}
	select {
	case <-last:
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline never drained")
	}
	if !c.nodes[0].eng.WaitIdle(2 * time.Second) {
		t.Fatal("WaitIdle timed out")
	}
	for _, n := range []wire.NodeID{0, 1, 2} {
		c.waitValid(t, n, 5, N, fmt.Sprintf("v%d", N))
	}
	if c.nodes[0].eng.HasPending(5) {
		t.Fatal("pending count leaked")
	}
}

func TestPipeliningDoesNotBlockCoordinator(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(9, 0, wire.BitmapOf(1, 2))
	// Issue 100 commits back-to-back; all Commit calls must return without
	// waiting for any R-ACK round trip.
	start := time.Now()
	for i := 0; i < 100; i++ {
		c.localWrite(0, 0, []wire.ObjectID{9}, "x")
	}
	elapsed := time.Since(start)
	if elapsed > 500*time.Millisecond {
		t.Fatalf("coordinator blocked: 100 commits took %v", elapsed)
	}
	c.nodes[0].eng.WaitIdle(5 * time.Second)
}

func TestPerWorkerPipelinesIndependent(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(11, 0, wire.BitmapOf(1))
	c.seedObject(12, 0, wire.BitmapOf(2))
	var wg sync.WaitGroup
	for w := wire.Worker(0); w < 4; w++ {
		wg.Add(1)
		go func(w wire.Worker) {
			defer wg.Done()
			obj := wire.ObjectID(11)
			if w%2 == 1 {
				obj = 12
			}
			for i := 0; i < 20; i++ {
				c.localWrite(0, w, []wire.ObjectID{obj}, "w")
			}
		}(w)
	}
	wg.Wait()
	if !c.nodes[0].eng.WaitIdle(5 * time.Second) {
		t.Fatal("pipes never drained")
	}
	st := c.nodes[0].eng.Stats()
	if st.Committed != 80 {
		t.Fatalf("committed = %d, want 80", st.Committed)
	}
}

func TestFollowerInvalidationWindow(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(7, 0, wire.BitmapOf(1, 2))
	// Block ACK traffic from node 2 so the commit cannot validate.
	c.hub.SetDown(2, true)
	_, done := c.localWrite(0, 0, []wire.ObjectID{7}, "pending")
	// Node 1 must be Invalid (applied, not validated).
	deadline := time.Now().Add(2 * time.Second)
	for {
		o, ok := c.nodes[1].st.Get(7)
		if ok {
			o.Mu.Lock()
			st := o.TState()
			o.Mu.Unlock()
			if st == store.TInvalid {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never invalidated")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if c.nodes[0].eng.HasPending(7) != true {
		t.Fatal("coordinator must report pending while unacked")
	}
	select {
	case <-done:
		t.Fatal("commit validated without all ACKs")
	default:
	}
	// Revive node 2; it missed the R-INV (down endpoints drop traffic), so
	// the view-change path re-sends: simulate by failing node 2 instead.
	c.mgr.Fail(2)
	if !c.mgr.WaitEpoch(2, 2*time.Second) {
		t.Fatal("no view change")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("commit never validated after pruning dead follower")
	}
	c.waitValid(t, 1, 7, 1, "pending")
}

func TestCoordinatorDeathFollowerReplays(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(21, 0, wire.BitmapOf(1, 2))
	// Deliver the R-INV straight to the followers, as if the coordinator
	// crashed right after broadcasting it and before any R-VAL.
	inv := &wire.CommitInv{
		Tx:        wire.TxID{Pipe: wire.PipeID{Node: 0, Worker: 0}, Local: 1},
		Epoch:     1,
		Followers: wire.BitmapOf(1, 2),
		PrevVal:   true,
		Updates:   []wire.Update{{Obj: 21, Version: 1, Data: []byte("orphan")}},
	}
	c.nodes[1].eng.Handle(0, inv)
	c.nodes[2].eng.Handle(0, inv)
	c.hub.SetDown(0, true)
	c.mgr.Fail(0)
	if !c.mgr.WaitEpoch(2, 2*time.Second) {
		t.Fatal("no view change")
	}
	// Followers replay the pending commit among themselves and validate.
	c.waitValid(t, 1, 21, 1, "orphan")
	c.waitValid(t, 2, 21, 1, "orphan")
	// The recovery barrier closes (both survivors report done).
	deadline := time.Now().Add(2 * time.Second)
	for c.mgr.RecoveryPending() {
		if time.Now().After(deadline) {
			t.Fatal("recovery barrier never closed")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if c.nodes[1].eng.Stats().Replays == 0 && c.nodes[2].eng.Stats().Replays == 0 {
		t.Fatal("no replays recorded")
	}
}

func TestIdempotentDuplicateInv(t *testing.T) {
	c := newTestCluster(t, 2)
	c.seedObject(31, 0, wire.BitmapOf(1))
	inv := &wire.CommitInv{
		Tx:        wire.TxID{Pipe: wire.PipeID{Node: 0, Worker: 0}, Local: 1},
		Epoch:     1,
		Followers: wire.BitmapOf(1),
		PrevVal:   true,
		Updates:   []wire.Update{{Obj: 31, Version: 1, Data: []byte("once")}},
	}
	// Deliver the same R-INV three times.
	for i := 0; i < 3; i++ {
		c.nodes[1].eng.Handle(0, inv)
	}
	o, _ := c.nodes[1].st.Get(31)
	o.Mu.Lock()
	ver, data := o.TVersion(), string(o.DataLocked())
	o.Mu.Unlock()
	if ver != 1 || data != "once" {
		t.Fatalf("duplicate INV mis-applied: v%d %q", ver, data)
	}
	c.nodes[1].eng.Handle(0, &wire.CommitVal{Tx: inv.Tx, Epoch: 1})
	o.Mu.Lock()
	st := o.TState()
	o.Mu.Unlock()
	if st != store.TValid {
		t.Fatalf("state after VAL: %v", st)
	}
	// Late duplicate after VAL: re-ACKed, not re-applied.
	c.nodes[1].eng.Handle(0, inv)
	o.Mu.Lock()
	st = o.TState()
	o.Mu.Unlock()
	if st != store.TValid {
		t.Fatalf("late duplicate flipped state: %v", st)
	}
}

func TestStaleVersionSkipped(t *testing.T) {
	c := newTestCluster(t, 2)
	c.seedObject(41, 0, wire.BitmapOf(1))
	o, _ := c.nodes[1].st.Get(41)
	o.Mu.Lock()
	o.GrantLocked(1, wire.OTS{Ver: 2}, o.ReplicasLocked(), store.Shipped{Has: true, Version: 5, Data: []byte("newer")})
	o.Mu.Unlock()
	inv := &wire.CommitInv{
		Tx:    wire.TxID{Pipe: wire.PipeID{Node: 0, Worker: 0}, Local: 1},
		Epoch: 1, Followers: wire.BitmapOf(1), PrevVal: true,
		Updates: []wire.Update{{Obj: 41, Version: 3, Data: []byte("older")}},
	}
	c.nodes[1].eng.Handle(0, inv)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.TVersion() != 5 || string(o.DataLocked()) != "newer" {
		t.Fatalf("stale INV applied: v%d %q", o.TVersion(), o.DataLocked())
	}
}

func TestOutOfOrderSlotWaitsForPredecessor(t *testing.T) {
	c := newTestCluster(t, 2)
	c.seedObject(51, 0, wire.BitmapOf(1))
	pipe := wire.PipeID{Node: 0, Worker: 0}
	// Slot 2 arrives first without the prev-VAL bit: must be buffered.
	inv2 := &wire.CommitInv{
		Tx: wire.TxID{Pipe: pipe, Local: 2}, Epoch: 1,
		Followers: wire.BitmapOf(1),
		Updates:   []wire.Update{{Obj: 51, Version: 2, Data: []byte("two")}},
	}
	c.nodes[1].eng.Handle(0, inv2)
	o, _ := c.nodes[1].st.Get(51)
	o.Mu.Lock()
	ver := o.TVersion()
	o.Mu.Unlock()
	if ver != 0 {
		t.Fatalf("slot 2 applied before slot 1: v%d", ver)
	}
	// Slot 1 arrives: both apply in order.
	inv1 := &wire.CommitInv{
		Tx: wire.TxID{Pipe: pipe, Local: 1}, Epoch: 1,
		Followers: wire.BitmapOf(1),
		Updates:   []wire.Update{{Obj: 51, Version: 1, Data: []byte("one")}},
	}
	c.nodes[1].eng.Handle(0, inv1)
	o.Mu.Lock()
	ver, data := o.TVersion(), string(o.DataLocked())
	o.Mu.Unlock()
	if ver != 2 || data != "two" {
		t.Fatalf("drain failed: v%d %q", ver, data)
	}
}

func TestPrevValBitAllowsGap(t *testing.T) {
	c := newTestCluster(t, 2)
	c.seedObject(61, 0, wire.BitmapOf(1))
	pipe := wire.PipeID{Node: 0, Worker: 0}
	// Node 1 was not a follower of slot 1; slot 2 carries prev-VAL.
	inv2 := &wire.CommitInv{
		Tx: wire.TxID{Pipe: pipe, Local: 2}, Epoch: 1, PrevVal: true,
		Followers: wire.BitmapOf(1),
		Updates:   []wire.Update{{Obj: 61, Version: 1, Data: []byte("gap")}},
	}
	c.nodes[1].eng.Handle(0, inv2)
	o, _ := c.nodes[1].st.Get(61)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.TVersion() != 1 || string(o.DataLocked()) != "gap" {
		t.Fatalf("prev-VAL gap not applied: v%d %q", o.TVersion(), o.DataLocked())
	}
}

func TestRValInclusionUnblocksPartialFollower(t *testing.T) {
	c := newTestCluster(t, 2)
	c.seedObject(71, 0, wire.BitmapOf(1))
	pipe := wire.PipeID{Node: 0, Worker: 0}
	// Slot 2 without prev-VAL: waits. Then the R-VAL of slot 1 arrives
	// (the coordinator included this node in slot 1's R-VAL broadcast).
	inv2 := &wire.CommitInv{
		Tx: wire.TxID{Pipe: pipe, Local: 2}, Epoch: 1,
		Followers: wire.BitmapOf(1),
		Updates:   []wire.Update{{Obj: 71, Version: 1, Data: []byte("late")}},
	}
	c.nodes[1].eng.Handle(0, inv2)
	c.nodes[1].eng.Handle(0, &wire.CommitVal{Tx: wire.TxID{Pipe: pipe, Local: 1}, Epoch: 1})
	o, _ := c.nodes[1].st.Get(71)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.TVersion() != 1 || string(o.DataLocked()) != "late" {
		t.Fatalf("R-VAL inclusion did not unblock: v%d %q", o.TVersion(), o.DataLocked())
	}
}

func TestWrongEpochIgnored(t *testing.T) {
	c := newTestCluster(t, 2)
	c.seedObject(81, 0, wire.BitmapOf(1))
	inv := &wire.CommitInv{
		Tx:    wire.TxID{Pipe: wire.PipeID{Node: 0, Worker: 0}, Local: 1},
		Epoch: 99, PrevVal: true, Followers: wire.BitmapOf(1),
		Updates: []wire.Update{{Obj: 81, Version: 1, Data: []byte("stale-epoch")}},
	}
	c.nodes[1].eng.Handle(0, inv)
	o, _ := c.nodes[1].st.Get(81)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.TVersion() != 0 {
		t.Fatal("stale-epoch INV applied")
	}
}

func TestConcurrentCommitsManyObjects(t *testing.T) {
	c := newTestCluster(t, 3)
	const objs = 32
	for i := 0; i < objs; i++ {
		c.seedObject(wire.ObjectID(100+i), 0, wire.BitmapOf(1, 2))
	}
	var wg sync.WaitGroup
	for w := wire.Worker(0); w < 8; w++ {
		wg.Add(1)
		go func(w wire.Worker) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				obj := wire.ObjectID(100 + (int(w)*25+i)%objs)
				nd := c.nodes[0]
				o, _ := nd.st.Get(obj)
				o.Mu.Lock()
				ver := o.StageLocked([]byte("c"))
				o.PendingCommits.Add(1)
				followers := o.ReplicasLocked().Readers
				o.Mu.Unlock()
				nd.eng.Commit(w, []wire.Update{{Obj: obj, Version: ver, Data: []byte("c")}}, followers, nil)
			}
		}(w)
	}
	wg.Wait()
	if !c.nodes[0].eng.WaitIdle(10 * time.Second) {
		t.Fatal("pipes never drained")
	}
	// All replicas converge to the coordinator's versions.
	for i := 0; i < objs; i++ {
		obj := wire.ObjectID(100 + i)
		o0, _ := c.nodes[0].st.Get(obj)
		o0.Mu.Lock()
		ver := o0.TVersion()
		o0.Mu.Unlock()
		for _, n := range []wire.NodeID{1, 2} {
			c.waitValid(t, n, obj, ver, "c")
		}
	}
}

// countingStore is a Storage stub that counts successfully appended records,
// can fail the next append (a transient storage error) or every append of one
// object's records, and can hold the next append until released (a slow
// fsync).
type countingStore struct {
	mu       sync.Mutex
	appended int
	failNext bool
	refuse   wire.ObjectID // non-zero: every append with a record of it fails
	hold     chan struct{} // non-nil: the next append waits for it to close
	held     chan struct{} // closed once that append is waiting
}

func (c *countingStore) Append(recs []storage.Record) error {
	c.mu.Lock()
	refused := slices.ContainsFunc(recs, func(r storage.Record) bool { return r.Obj == c.refuse })
	if c.failNext || refused {
		c.failNext = false
		c.mu.Unlock()
		return fmt.Errorf("transient append failure")
	}
	hold, held := c.hold, c.held
	c.hold = nil
	c.mu.Unlock()
	if hold != nil {
		close(held)
		<-hold
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appended += len(recs)
	return nil
}
func (c *countingStore) Snapshot(func(func(storage.SnapObject) error) error) error { return nil }
func (c *countingStore) Recover() (*storage.Recovered, error)                      { return storage.NewRecovered(), nil }
func (c *countingStore) Close() error                                              { return nil }

func (c *countingStore) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appended
}

// holdNext makes the next append wait until release is called (once or
// more); held is closed once it waits.
func (c *countingStore) holdNext() (held <-chan struct{}, release func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hold := make(chan struct{})
	c.hold, c.held = hold, make(chan struct{})
	return c.held, sync.OnceFunc(func() { close(hold) })
}

// acksFrom replaces node 0's handler with a recorder and returns a func that
// counts the slots named by the R-ACKs fl has sent it, once everything fl's
// engine acknowledged before the call has arrived (recorder.flush).
func acksFrom(t *testing.T, c *tcluster, fl *tnode) func() int {
	t.Helper()
	r := record(c, 0)
	return func() int {
		t.Helper()
		r.flush(t, fl, 0)
		n := 0
		for _, ack := range r.acksAt(0) {
			for range ack.Slots {
				n++
			}
		}
		return n
	}
}

// TestDuplicateInvDoesNotRelog: an R-ACK leaves only once the records it
// acknowledges are durable, and duplicate R-INVs re-ACK without re-appending
// (a resend storm must not grow the WAL). A slot whose first append failed
// sends no ACK and is retried by the next delivery; an append that has not
// returned holds its ACK back. This is the run-time half of zeuslint's
// ackdurable rule, at the one choke point it sanctions. The pipe's
// coordinator, node 2, is not live: node 0 delivers its R-INVs as a replayer
// would, and only those deliveries retry the append (retryAppends leaves a
// dead coordinator's pipe to its replayers).
func TestDuplicateInvDoesNotRelog(t *testing.T) {
	cs := &countingStore{failNext: true}
	c := newTestClusterWith(t, 2, onNode(1, Config{Log: storage.NewLog(cs, nil)}))
	fl := c.nodes[1]
	acks := acksFrom(t, c, fl)

	inv := &wire.CommitInv{
		Tx:        wire.TxID{Pipe: wire.PipeID{Node: 2, Worker: 0}, Local: 1},
		Epoch:     fl.agent.Epoch(),
		Followers: wire.BitmapOf(1),
		PrevVal:   true,
		Updates:   []wire.Update{{Obj: 9, Version: 1, Data: []byte("v1")}},
	}
	fl.eng.Handle(0, inv) // applies; the append fails; no ACK
	if n := cs.count(); n != 0 {
		t.Fatalf("records durable after failed append: %d", n)
	}
	if n := acks(); n != 0 {
		t.Fatalf("%d R-ACKs after the append failed, want 0", n)
	}
	fl.eng.Handle(0, inv) // retransmit: retries the append, then ACKs
	if n := cs.count(); n != 1 {
		t.Fatalf("retransmit did not retry the append: %d records", n)
	}
	if n := acks(); n != 1 {
		t.Fatalf("%d R-ACKs after the retried append, want 1", n)
	}
	for i := 0; i < 5; i++ {
		fl.eng.Handle(0, inv) // pure duplicates: re-ACK only
		if n := acks(); n != 2+i {
			t.Fatalf("%d R-ACKs after duplicate %d, want %d: one per delivery since the append succeeded", n, i+1, 2+i)
		}
	}
	if n := cs.count(); n != 1 {
		t.Fatalf("duplicates grew the WAL: %d records, want 1", n)
	}
	// Validation must not append either (version-only commit records are
	// recorded via recCommitted — one more record, exactly once).
	fl.eng.Handle(0, &wire.CommitVal{Tx: inv.Tx, Epoch: inv.Epoch})
	fl.eng.Handle(0, inv) // late duplicate after VAL: isDone path, re-ACK only
	if n := cs.count(); n != 2 {
		t.Fatalf("post-VAL records = %d, want 2 (RecInv + RecCommit)", n)
	}
	if n := acks(); n != 7 {
		t.Fatalf("%d R-ACKs, want 7: one per delivery since the append succeeded", n)
	}

	// The next slot's append does not return until released: its ACK waits.
	next := *inv
	next.Tx.Local = 2
	next.Updates = []wire.Update{{Obj: 9, Version: 2, Data: []byte("v2")}}
	held, release := cs.holdNext()
	defer release() // a failed check below must not leave the follower blocked
	handled := make(chan struct{})
	go func() {
		fl.eng.Handle(0, &next)
		close(handled)
	}()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("the second slot never reached the WAL")
	}
	if n := acks(); n != 7 {
		t.Fatalf("an R-ACK left while its append was still running: %d R-ACKs, want 7", n)
	}
	release()
	<-handled
	if n := acks(); n != 8 {
		t.Fatalf("%d R-ACKs once the append returned, want 8", n)
	}
}

// TestIncarnationPinsPipeID: with a durable incarnation armed, new pipes
// carry it instead of the view epoch, so a restart that never bumped the
// epoch still gets fresh pipe identities at the followers.
func TestIncarnationPinsPipeID(t *testing.T) {
	c := newTestClusterWith(t, 2, onNode(0, Config{Incarnation: 7}))
	e := c.nodes[0].eng
	if got := e.pipe(3).id.Incar; got != 7 {
		t.Fatalf("pipe Incar = %d, want the armed incarnation 7", got)
	}
	want := c.nodes[1].agent.Epoch()
	if got := c.nodes[1].eng.pipe(0).id.Incar; got != want {
		t.Fatalf("memory-only pipe Incar = %d, want the epoch %d", got, want)
	}
}

// TestFollowerRetriesAFailedAppend: a follower whose WAL append failed once
// ACKs the slot as soon as a retry of the append returns — with no view
// change, so no resend from the coordinator delivers the R-INV again.
func TestFollowerRetriesAFailedAppend(t *testing.T) {
	cs := &countingStore{failNext: true}
	c := newTestClusterWith(t, 2, onNode(1, Config{Log: storage.NewLog(cs, nil)}))
	c.seedObject(1, 0, wire.BitmapOf(1))
	epoch := c.nodes[0].agent.Epoch()
	s := c.localCommit(0, 0, []wire.ObjectID{1}, "v1")
	waitClosed(t, s.Done())
	if now := c.nodes[0].agent.Epoch(); now != epoch {
		t.Fatalf("the view changed (epoch %d → %d): the test needs a steady view", epoch, now)
	}
	c.waitValid(t, 1, 1, 1, "v1")
}

// ackHarness is what TestAnRAckAcknowledgesOnlyItsOwnSlot's cases act on:
// the follower, its store, and held, which returns the first R-INV of a
// slot that node 0 sent the follower when its handler keeps them back.
type ackHarness struct {
	fl   *tnode
	cs   *countingStore
	held func(local uint64) *wire.CommitInv
}

// TestAnRAckAcknowledgesOnlyItsOwnSlot: the coordinator pipelines slot 1 (object 1) and slot 2 (object 2) to one follower, which
// acknowledges slot 2 but not yet slot 1. Slot 2 validates; slot 1 stays open
// until the follower's R-ACK for slot 1 itself, and the follower's object 1
// then holds slot 1's version.
func TestAnRAckAcknowledgesOnlyItsOwnSlot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		refuse wire.ObjectID // the follower's store fails every append of it
		hold   bool          // the follower's handler keeps node 0's R-INVs back (ackHarness.held)
		// deliver, if set, runs once both slots are committed; release lets
		// slot 1 through.
		deliver, release func(h ackHarness)
	}{
		{
			name:   "slot 1's append fails",
			refuse: 1,
			release: func(h ackHarness) {
				h.cs.mu.Lock()
				h.cs.refuse = 0
				h.cs.mu.Unlock()
			},
		},
		{
			name: "a replayed slot 2 is applied first",
			hold: true,
			deliver: func(h ackHarness) {
				replay := *h.held(2)
				replay.Replay = true
				h.fl.eng.Handle(0, &replay)
			},
			release: func(h ackHarness) { h.fl.eng.Handle(0, h.held(1)) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := &countingStore{refuse: tc.refuse}
			c := newTestClusterWith(t, 2, onNode(1, Config{Log: storage.NewLog(cs, nil)}))
			c.seedObject(1, 0, wire.BitmapOf(1))
			c.seedObject(2, 0, wire.BitmapOf(1))
			h := ackHarness{fl: c.nodes[1], cs: cs}
			var mu sync.Mutex
			invs := map[uint64]*wire.CommitInv{}
			if tc.hold {
				h.fl.tr.SetHandler(func(from wire.NodeID, m wire.Msg) {
					if inv, ok := m.(*wire.CommitInv); ok {
						mu.Lock()
						if invs[inv.Tx.Local] == nil {
							invs[inv.Tx.Local] = inv
						}
						mu.Unlock()
						return
					}
					h.fl.eng.Handle(from, m)
				})
			}
			h.held = func(local uint64) *wire.CommitInv {
				t.Helper()
				for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(200 * time.Microsecond) {
					mu.Lock()
					inv := invs[local]
					mu.Unlock()
					if inv != nil {
						return inv
					} else if time.Now().After(deadline) {
						t.Fatalf("slot %d's R-INV never reached the follower", local)
					}
				}
			}

			one := c.localCommit(0, 0, []wire.ObjectID{1}, "one")
			two := c.localCommit(0, 0, []wire.ObjectID{2}, "two")
			if tc.deliver != nil {
				tc.deliver(h)
			}
			waitClosed(t, two.Done())
			time.Sleep(20 * time.Millisecond)
			if closed(one.Done()) {
				t.Fatal("slot 1 validated though the follower never acknowledged it")
			}
			tc.release(h)
			waitClosed(t, one.Done())
			c.waitValid(t, 1, 1, 1, "one")
			c.waitValid(t, 1, 2, 1, "two")
		})
	}
}

// TestAdoptedSlotsKeepLocalOrder: a follower adopts a dead coordinator's
// stored R-INVs as slots in Local order, whatever order they arrived in —
// the order FIFO the resend pass walks — and its dump shows the adopted pipe
// while a surviving follower has not acknowledged the replay.
func TestAdoptedSlotsKeepLocalOrder(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seedObject(1, 0, wire.BitmapOf(1, 2))
	c.seedObject(2, 0, wire.BitmapOf(1, 2))
	pipe := wire.PipeID{Node: 0, Worker: 0}
	fl := c.nodes[1]
	for _, inv := range []*wire.CommitInv{ // slot 2 first, as a replay
		{Tx: wire.TxID{Pipe: pipe, Local: 2}, Epoch: 1, Followers: wire.BitmapOf(1, 2), Replay: true,
			Updates: []wire.Update{{Obj: 2, Version: 1, Data: []byte("two")}}},
		{Tx: wire.TxID{Pipe: pipe, Local: 1}, Epoch: 1, Followers: wire.BitmapOf(1, 2),
			Updates: []wire.Update{{Obj: 1, Version: 1, Data: []byte("one")}}},
	} {
		fl.eng.Handle(0, inv)
	}
	c.hub.SetDown(2, true) // node 2 stays live but never acknowledges the replays
	c.hub.SetDown(0, true)
	c.mgr.Fail(0)
	if !c.mgr.WaitEpoch(2, 2*time.Second) {
		t.Fatal("no view change")
	}
	deadline := time.Now().Add(2 * time.Second)
	for fl.eng.PendingReplays() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("node 1 adopted %d slots, want 2", fl.eng.PendingReplays())
		}
		time.Sleep(200 * time.Microsecond)
	}
	p, _ := fl.eng.adopted.Get(pipe)
	p.mu.Lock()
	var order []uint64
	for _, s := range p.live() {
		order = append(order, s.Tx().Local)
	}
	p.mu.Unlock()
	if !slices.Equal(order, []uint64{1, 2}) {
		t.Fatalf("adopted pipe order %v, want [1 2]", order)
	}
	var buf strings.Builder
	fl.eng.DumpState(&buf)
	if !strings.Contains(buf.String(), "adopted pipe="+pipe.String()) {
		t.Fatalf("dump does not show the adopted pipe:\n%s", buf.String())
	}
}
