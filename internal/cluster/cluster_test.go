package cluster

import (
	"errors"
	"testing"
	"time"

	"zeus/internal/dbapi"
	"zeus/internal/netsim"
	"zeus/internal/store"
	"zeus/internal/wire"
)

func TestDefaultsAndAccessors(t *testing.T) {
	c := New(DefaultOptions(4))
	defer c.Close()
	if c.Nodes() != 4 {
		t.Fatalf("nodes = %d", c.Nodes())
	}
	if c.DirShards() < 1 {
		t.Fatalf("dir shards = %d", c.DirShards())
	}
	// A non-positive shard count is the host-scaled default, not a mode.
	neg := DefaultOptions(3)
	neg.View.DirShards = -1
	c2 := New(neg)
	defer c2.Close()
	if c2.DirShards() != c.DirShards() {
		t.Fatalf("DirShards -1 gave %d shards, default gives %d", c2.DirShards(), c.DirShards())
	}
	for obj := wire.ObjectID(0); obj < 32; obj++ {
		if d := c.DirDrivers(obj); d.Count() != 3 || d.Intersect(c.Live()) != d {
			t.Fatalf("obj %d: drivers = %v (live %v)", obj, d, c.Live())
		}
	}
	if c.Live().Count() != 4 {
		t.Fatalf("live = %v", c.Live())
	}
	if c.Node(0) == nil || c.Node(0).ID() != 0 {
		t.Fatal("node accessor broken")
	}
	if c.Manager() == nil {
		t.Fatal("no manager")
	}
}

func TestSmallClusterDirsClamped(t *testing.T) {
	c := New(DefaultOptions(2))
	defer c.Close()
	for obj := wire.ObjectID(0); obj < 32; obj++ {
		if d := c.DirDrivers(obj); d != wire.BitmapOf(0, 1) {
			t.Fatalf("obj %d: drivers on 2-node cluster = %v", obj, d)
		}
	}
}

// TestLeaseHasOneSource: View.Lease is the membership lease every node's
// agent runs on, 2ms when left zero (not the view service's own 10ms).
func TestLeaseHasOneSource(t *testing.T) {
	for _, tc := range []struct{ set, want time.Duration }{
		{0, 2 * time.Millisecond},
		{3 * time.Millisecond, 3 * time.Millisecond},
	} {
		opts := DefaultOptions(3)
		opts.View.Lease = tc.set
		c := New(opts)
		for i := 0; i < c.Nodes(); i++ {
			if got := c.Node(i).Agent().Lease(); got != tc.want {
				t.Errorf("View.Lease %v: node %d lease = %v, want %v", tc.set, i, got, tc.want)
			}
		}
		c.Close()
	}
}

// TestSeedSharesOneCopy: Seed adopts data as Set does — every replica on
// the hub holds the caller's backing array, capacity clipped so an append to
// the version reallocates — and an empty value is stored as nil.
func TestSeedSharesOneCopy(t *testing.T) {
	c := New(DefaultOptions(3))
	defer c.Close()
	val := make([]byte, 8, 64) // spare capacity the version must not expose
	c.SeedAt(1, 0, val)
	c.SeedAt(2, 0, []byte{})
	for i := 0; i < 3; i++ {
		for obj, want := range map[wire.ObjectID][]byte{1: val, 2: nil} {
			o, ok := c.Node(i).Store().Get(obj)
			if !ok {
				t.Fatalf("node %d holds no replica of %d", i, obj)
			}
			o.Mu.Lock()
			data, lvl := o.DataLocked(), o.LevelLocked()
			o.Mu.Unlock()
			switch {
			case lvl == wire.NonReplica:
				t.Fatalf("node %d is not a replica of %d", i, obj)
			case want == nil && data != nil:
				t.Errorf("node %d stores the empty value as %#v, want nil", i, data)
			case want != nil && (&data[0] != &val[0] || len(data) != 8 || cap(data) != 8):
				t.Errorf("node %d: same array %v, len %d, cap %d; want the caller's array, 8, 8",
					i, &data[0] == &val[0], len(data), cap(data))
			}
		}
	}
}

func TestSeedEstablishesReplicasAndDirectory(t *testing.T) {
	c := New(DefaultOptions(4))
	defer c.Close()
	c.Seed(5, 3, wire.BitmapOf(0, 1), []byte("seeded"))
	// Owner.
	o, ok := c.Node(3).Store().Get(5)
	if !ok {
		t.Fatal("owner has no object")
	}
	o.Mu.Lock()
	if o.LevelLocked() != wire.Owner || string(o.DataLocked()) != "seeded" || o.TState() != store.TValid {
		t.Fatalf("owner state: %v %q %v", o.LevelLocked(), o.DataLocked(), o.TState())
	}
	o.Mu.Unlock()
	// Readers.
	for _, r := range []int{0, 1} {
		ro, ok := c.Node(r).Store().Get(5)
		if !ok {
			t.Fatalf("reader %d missing object", r)
		}
		ro.Mu.Lock()
		if ro.LevelLocked() != wire.Reader || string(ro.DataLocked()) != "seeded" {
			t.Fatalf("reader %d state: %v %q", r, ro.LevelLocked(), ro.DataLocked())
		}
		ro.Mu.Unlock()
	}
	// Directory entry exists on node 2 even though it is a non-replica.
	d, ok := c.Node(2).Store().Get(5)
	if !ok {
		t.Fatal("dir node missing entry")
	}
	d.Mu.Lock()
	defer d.Mu.Unlock()
	if d.ReplicasLocked().Owner != 3 || d.LevelLocked() != wire.NonReplica {
		t.Fatalf("dir entry: %+v", d.ReplicasLocked())
	}
}

// TestReseedIsAGrant: Seed goes through the grant transition, so seeding an
// object again moves replicas like a grant does — a node the new set leaves
// out drops its copy instead of keeping a payload behind a non-replica level.
func TestReseedIsAGrant(t *testing.T) {
	c := New(DefaultOptions(3))
	defer c.Close()
	c.Seed(5, 0, wire.BitmapOf(1), []byte("first"))
	c.Seed(5, 2, 0, []byte("second")) // o_ts ⟨1, node 2⟩ orders after ⟨1, node 0⟩
	for node, want := range []string{"", "", "second"} {
		o, _ := c.Node(node).Store().Get(5)
		o.Mu.Lock()
		lvl, owner, ver, data := o.LevelLocked(), o.ReplicasLocked().Owner, o.TVersion(), string(o.DataLocked())
		o.Mu.Unlock()
		if owner != 2 || (lvl != wire.NonReplica) != (want != "") || data != want || (ver != 0) != (want != "") {
			t.Fatalf("node %d after the second seed: level %v, owner %d, version %d, payload %q", node, lvl, owner, ver, data)
		}
	}
}

func TestSeedRangeRoundRobin(t *testing.T) {
	c := New(DefaultOptions(3))
	defer c.Close()
	c.SeedRange(100, 9, []byte("rr"))
	for i := 0; i < 9; i++ {
		owner := wire.NodeID(i % 3)
		o, ok := c.Node(int(owner)).Store().Get(wire.ObjectID(100 + i))
		if !ok {
			t.Fatalf("obj %d missing at node %d", 100+i, owner)
		}
		o.Mu.Lock()
		lvl := o.LevelLocked()
		o.Mu.Unlock()
		if lvl != wire.Owner {
			t.Fatalf("obj %d level %v at node %d", 100+i, lvl, owner)
		}
	}
}

func TestKillRunsRecoveryBarrier(t *testing.T) {
	c := New(DefaultOptions(4))
	defer c.Close()
	c.SeedAt(7, 3, []byte("k"))
	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}
	if c.Live().Contains(3) {
		t.Fatal("killed node still live")
	}
	if c.Manager().RecoveryPending() {
		t.Fatal("recovery barrier still open")
	}
	// Survivors can take over the ownerless object.
	err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(7, []byte("taken"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAddNodeJoinsAndWorks(t *testing.T) {
	c := New(DefaultOptions(3))
	defer c.Close()
	c.SeedAt(9, 0, []byte("j"))
	n := c.AddNode()
	if n.ID() != 3 || !c.Live().Contains(3) {
		t.Fatalf("join failed: id=%d live=%v", n.ID(), c.Live())
	}
	err := dbapi.Run(n.DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(9, []byte("from-joiner"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLeaveDrainsAndRemoves(t *testing.T) {
	c := New(DefaultOptions(4))
	defer c.Close()
	c.SeedAt(11, 3, []byte("l"))
	if err := dbapi.Run(c.Node(3).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(11, []byte("l2"))
	}); err != nil {
		t.Fatal(err)
	}
	c.Node(3).CommitEngine().WaitIdle(2 * time.Second)
	if err := c.Leave(3); err != nil {
		t.Fatal(err)
	}
	if c.Live().Contains(3) {
		t.Fatal("left node still live")
	}
	// Remaining nodes serve the data.
	var got []byte
	err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(11)
		got = v
		if err != nil {
			return err
		}
		return tx.Set(11, v)
	})
	if err != nil || string(got) != "l2" {
		t.Fatalf("post-leave read: %q %v", got, err)
	}
}

// TestDeleteAtDriverDropsTheWholeReplica: the node that deletes an object may
// also drive its directory shard, and then keeps the bare entry. That entry
// must be as empty as any other dropped replica's — the requester's delete
// branch used to nil the payload only, leaving the old version behind for a
// later re-create to meet.
func TestDeleteAtDriverDropsTheWholeReplica(t *testing.T) {
	c := New(DefaultOptions(3)) // three nodes: each drives every shard
	defer c.Close()
	c.Seed(31, 0, wire.BitmapOf(1, 2), []byte("seeded"))
	for i := 0; i < 3; i++ {
		if err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
			return tx.Set(31, []byte("written"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitIdle(2 * time.Second) {
		t.Fatal("WaitIdle timed out")
	}
	if err := c.Node(0).DeleteObject(31); err != nil {
		t.Fatal(err)
	}
	o, ok := c.Node(0).Store().Get(31)
	if !ok {
		t.Fatal("the deleting driver lost its directory entry")
	}
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.LevelLocked() != wire.NonReplica || o.DataLocked() != nil || o.TVersion() != 0 {
		t.Fatalf("surviving entry: level %v, data %q, version %d; want a bare entry",
			o.LevelLocked(), o.DataLocked(), o.TVersion())
	}
}

// TestSeedAndCreateObjectShareOnePlacement: an object the cluster seeds at
// node k and one node k creates get the same readers, core.DefaultReaders of
// the live view, here a view with a hole in it.
func TestSeedAndCreateObjectShareOnePlacement(t *testing.T) {
	c := New(DefaultOptions(5))
	defer c.Close()
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	readers := func(k wire.NodeID, obj wire.ObjectID) wire.Bitmap {
		o, ok := c.Node(int(k)).Store().Get(obj)
		if !ok {
			t.Fatalf("node %d holds no object %d", k, obj)
		}
		o.Mu.Lock()
		defer o.Mu.Unlock()
		return o.ReplicasLocked().Readers
	}
	for k := range c.Live().Each {
		seeded, created := wire.ObjectID(100+k), wire.ObjectID(200+k)
		c.SeedAt(seeded, k, []byte("s"))
		if err := c.Node(int(k)).CreateObject(created, []byte("c")); err != nil {
			t.Fatal(err)
		}
		if s, cr := readers(k, seeded), readers(k, created); s != cr || s.Count() != 2 || s.Contains(2) {
			t.Errorf("owner %d: seeded readers %v, created readers %v; want the same two live nodes", k, s, cr)
		}
	}
}

func TestWaitIdleAndTrafficCounters(t *testing.T) {
	c := New(DefaultOptions(3))
	defer c.Close()
	c.SeedAt(13, 0, []byte("w"))
	if err := dbapi.Run(c.Node(0).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(13, []byte("w2"))
	}); err != nil {
		t.Fatal(err)
	}
	if !c.WaitIdle(2 * time.Second) {
		t.Fatal("WaitIdle timed out")
	}
	if c.Messages() == 0 || c.Bytes() == 0 {
		t.Fatal("no traffic recorded on mem fabric")
	}
}

func TestSimFabricCluster(t *testing.T) {
	opts := DefaultOptions(3)
	opts.Fabric = FabricSim
	opts.Net = netsim.Config{Seed: 5, MaxLatency: 30 * time.Microsecond, LossProb: 0.02, InboxDepth: 1 << 14}
	opts.Observability = true
	c := New(opts)
	defer c.Close()
	c.SeedAt(15, 0, []byte("sim"))
	if err := dbapi.Run(c.Node(1).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(15, []byte("sim2"))
	}); err != nil {
		t.Fatal(err)
	}
	if c.Messages() == 0 {
		t.Fatal("sim fabric carried no messages")
	}
	// core.NewNode scrapes the reliable endpoint's counters into the node's
	// registry, as it does a TCP endpoint's.
	if v, ok := c.Obs(1).CounterValue("tr_msgs_sent_total"); !ok || v == 0 {
		t.Errorf("node 1's tr_msgs_sent_total = %d (registered: %v)", v, ok)
	}
}

func TestOwnershipLatencyHookWiring(t *testing.T) {
	var n int
	opts := DefaultOptions(3)
	opts.OnOwnershipLatency = func(time.Duration) { n++ }
	c := New(opts)
	defer c.Close()
	c.SeedAt(17, 0, []byte("h"))
	if err := dbapi.Run(c.Node(2).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(17, []byte("h2"))
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("latency hook never fired")
	}
}

// TestTCPCarriesEveryWriteItTakes: a TCP read loop hangs up on a frame over
// wire.MaxMsg, and the commit's resend loop would then send the R-INV into
// fresh sockets forever. So a write that one R-INV cannot carry is refused
// before it reaches the wire: a value, or a transaction's values together,
// over wire.MaxBlob counted by wire.UpdateSize — a replaced value no longer
// counts — and a seed of such a value. The transaction that was refused
// still commits what it took. (The large buffers are never written, so they
// cost address space, not memory.)
func TestTCPCarriesEveryWriteItTakes(t *testing.T) {
	opts := DefaultOptions(3)
	opts.Fabric = FabricTCP
	c := New(opts)
	defer c.Close()
	c.SeedAt(1, 0, []byte("a"))
	c.SeedAt(2, 0, []byte("b"))
	whole := make([]byte, wire.MaxBlob)
	if err := c.SeedAt(3, 0, whole); !errors.Is(err, wire.ErrTooLarge) {
		t.Errorf("Seed of %d bytes answered %v, want wire.ErrTooLarge", len(whole), err)
	}
	tx := c.Node(0).BeginOn(0)
	defer tx.Abort()
	if err := tx.Set(1, whole); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("Set of %d bytes answered %v, want wire.ErrTooLarge", len(whole), err)
	}
	half := whole[:wire.MaxBlob/2]
	if err := tx.Set(1, half); err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(2, half); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("a second Set of %d bytes answered %v, want wire.ErrTooLarge", len(half), err)
	}
	if err := tx.Set(1, []byte("a2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(2, half); err != nil {
		t.Fatalf("Set after the large value was replaced: %v", err)
	}
	if err := tx.Set(2, []byte("b2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !c.Node(0).CommitEngine().WaitIdle(5 * time.Second) {
		t.Fatal("the write never replicated")
	}
	for _, obj := range []uint64{1, 2} {
		var got []byte
		if err := dbapi.RunRO(c.Node(1).DB(), 0, func(tx dbapi.Txn) error {
			v, err := tx.Get(obj)
			got = append([]byte(nil), v...)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if want := map[uint64]string{1: "a2", 2: "b2"}[obj]; string(got) != want {
			t.Errorf("object %d reads %q at a follower, want %q", obj, got, want)
		}
	}
}

func TestTCPFabricCluster(t *testing.T) {
	opts := DefaultOptions(3)
	opts.Fabric = FabricTCP
	opts.Observability = true
	c := New(opts)
	defer c.Close()
	c.SeedAt(25, 0, []byte("tcp"))
	// A remote write commits over real loopback sockets.
	if err := dbapi.Run(c.Node(1).DB(), 0, func(tx dbapi.Txn) error {
		return tx.Set(25, []byte("tcp2"))
	}); err != nil {
		t.Fatal(err)
	}
	// Run returns at the local commit; node 2 serves the old value, validly,
	// until the R-INV reaches it. Reliably committed means it has.
	if !c.Node(1).CommitEngine().WaitIdle(5 * time.Second) {
		t.Fatal("write never replicated")
	}
	var got []byte
	if err := dbapi.RunRO(c.Node(2).DB(), 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(25)
		got = append([]byte(nil), v...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "tcp2" {
		t.Fatalf("read %q over TCP fabric, want %q", got, "tcp2")
	}
	// The sockets count what they carry: cluster-wide through Messages and
	// Bytes, per node in its registry.
	if c.Messages() == 0 || c.Bytes() == 0 {
		t.Errorf("cluster counted %d messages, %d bytes over TCP", c.Messages(), c.Bytes())
	}
	for _, name := range []string{"tcp_msgs_sent_total", "tcp_bytes_sent_total", "tcp_writes_total", "tcp_reads_total"} {
		if v, ok := c.Obs(1).CounterValue(name); !ok || v == 0 {
			t.Errorf("node 1's %s = %d (registered: %v)", name, v, ok)
		}
	}
	if v, ok := c.Obs(1).CounterValue("tcp_decode_drops_total"); !ok || v != 0 {
		t.Errorf("node 1's tcp_decode_drops_total = %d (registered: %v)", v, ok)
	}
	// Failure injection goes through the fabric: on sockets a kill closes the
	// endpoint and a restart listens afresh (TestKillRestartOnEveryFabric
	// takes it from there).
	if err := c.Kill(1); err != nil {
		t.Fatalf("Kill on the TCP fabric: %v", err)
	}
	if _, err := c.Restart(1); err != nil {
		t.Fatalf("Restart on the TCP fabric: %v", err)
	}
}
