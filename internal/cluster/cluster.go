// Package cluster is the one place an in-process Zeus deployment is stood up,
// faulted and torn down: N core nodes, one view-service ensemble and its
// client, all on one transport.Fabric, with helpers for failure injection
// (Kill, Restart, KillViewReplica, Leave), scale-out and bulk data seeding.
// It is the substitute for the paper's six-server testbed: benchmarks,
// experiments and the public zeus package run against a Cluster, and the
// baseline systems (bench.BaselineDeployment) stand on the same fabrics.
//
// Nothing here asks which fabric it is on except newFabric (fabric.go). What
// the three do with the same five calls:
//
//	             FabricMem                FabricSim                      FabricTCP
//	endpoint     a slot in a              a transport.Reliable over a    a transport.TCP on a
//	             transport.Hub            netsim endpoint, one per id    127.0.0.1:0 listener
//	SetDown      the slot drops what it   netsim drops every frame to    true closes the listener
//	             sends and is sent;       and from the endpoint; the     and every socket for good;
//	             false undoes it          Reliable keeps retransmitting  false does nothing
//	a Restart    the same slot, inbox     the same Reliable: sequence    a new listener on a new
//	gets         as the kill left it      numbers in step with peers,    port, whose address every
//	                                      frames unacked since the       live endpoint is given
//	                                      kill delivered late
//	Messages     messages delivered       frames handed to netsim,       messages handed to socket
//	                                      retransmits and acks included  writes, closed endpoints too
//	Bytes        their encoded size       those frames with headers      the framed bytes written
//
// On every fabric the endpoint belongs to the fabric, not to the node built on
// it: Kill cuts it off and leaves the dead node's engines running into the
// void, as a crashed server's peers would see it; Restart shuts what is left
// of the old node down, asks the fabric for the id's endpoint again and takes
// the new node through core.Node.Rejoin, the same sequence a restarted zeusd
// process runs.
package cluster

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"zeus/internal/core"
	"zeus/internal/netsim"
	"zeus/internal/obs"
	"zeus/internal/retry"
	"zeus/internal/storage"
	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// Options configures a cluster. The embedded core.Config is every node's
// tuning, handed to each node as it is.
type Options struct {
	core.Config
	Nodes  int
	Fabric FabricKind
	// Net configures the simulated fabric (FabricSim only); the reliable
	// transport over it derives its timeouts from Net's latency scale.
	Net netsim.Config
	// ViewReplicas is the view-service ensemble size (default 3; values
	// above 3 clamp — the reserved transport-id range 61..63 caps the
	// ensemble). The replicas live on the cluster's own fabric, so
	// fault-injection tests can crash them like any node.
	ViewReplicas int
	// View tunes the view service. View.Lease is the one membership lease,
	// 2ms when zero; the heartbeat derives from it. View.DirShards is the one
	// place the ownership directory's shard count (§6.2) is set: each shard
	// is driven by up to three nodes rendezvous-hashed from the live view, and
	// every node follows the shard→drivers placement the view service
	// replicates. Zero or negative picks the host-scaled default.
	View viewsvc.Config
	// Storage builds the per-node durable storage driver; nil keeps nodes
	// memory-only. The cluster memoizes the driver per node id, so a
	// restarted node recovers from the SAME driver its previous
	// incarnation wrote.
	Storage func(wire.NodeID) storage.Storage
	// Observability gives every node its own obs.Registry (metrics, traces,
	// incidents — reachable via Cluster.Obs) plus a cluster-level registry
	// for the shared view-service client (ViewObs). FabricSim endpoints
	// additionally scrape their reliable-transport counters into the node's
	// registry. Off by default: benchmarks measure the nil-registry paths
	// unless they opt in.
	Observability bool
}

// DefaultOptions mirrors the paper's setup: 3-way replication.
func DefaultOptions(nodes int) Options {
	return Options{Config: core.Config{}.WithDefaults(), Nodes: nodes, Fabric: FabricMem}
}

// Cluster is an in-process Zeus deployment.
type Cluster struct {
	opts   Options
	fabric transport.Fabric
	mgr    *viewsvc.Client
	views  *viewsvc.Ensemble
	vsIDs  []wire.NodeID
	mu     sync.RWMutex // guards nodes: Restart races test load loops
	nodes  map[wire.NodeID]*core.Node
	stores map[wire.NodeID]storage.Storage // retained across Restart

	// viewObs (Options.Observability only) holds the shared view-service
	// client's metrics — epoch changes, recovery-barrier durations, lease
	// renew lag — which belong to the cluster, not to any one node.
	viewObs *obs.Registry
}

// New builds and starts a cluster.
func New(opts Options) *Cluster { return newOn(opts, newFabric(opts)) }

// newOn builds and starts a cluster on the given fabric.
func newOn(opts Options, fabric transport.Fabric) *Cluster {
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	// Seed's default readers need the effective degree.
	opts.Config = opts.Config.WithDefaults()
	if opts.View.Lease <= 0 {
		opts.View.Lease = 2 * time.Millisecond
	}
	if opts.Nodes > int(viewsvc.MaxDataNode)+1 {
		panic(fmt.Sprintf("cluster: at most %d data nodes (ids above are reserved for the view service)", viewsvc.MaxDataNode+1))
	}
	if opts.ViewReplicas <= 0 {
		opts.ViewReplicas = 3
	}
	if opts.ViewReplicas > 3 {
		opts.ViewReplicas = 3
	}
	var members wire.Bitmap
	for i := 0; i < opts.Nodes; i++ {
		members = members.Add(wire.NodeID(i))
	}
	c := &Cluster{
		opts:   opts,
		fabric: fabric,
		nodes:  make(map[wire.NodeID]*core.Node),
		stores: make(map[wire.NodeID]storage.Storage),
	}
	// View service first: the ensemble and the membership client live on
	// reserved endpoint ids of the same fabric as the data nodes, so every
	// membership decision (epoch bump, lease expiry, recovery barrier)
	// crosses the wire — and tests can crash view replicas like any node.
	c.vsIDs = viewsvc.ReplicaIDs(opts.ViewReplicas)
	vtrs := make([]transport.Transport, len(c.vsIDs))
	for i, id := range c.vsIDs {
		vtrs[i] = c.fabric.Node(id)
	}
	c.views = viewsvc.StartEnsemble(opts.View, c.vsIDs, vtrs, members)
	if opts.Observability {
		c.viewObs = obs.NewRegistry()
	}
	c.mgr = viewsvc.NewClient(opts.View, c.fabric.Node(viewsvc.ClientID), c.vsIDs, members, c.viewObs)
	for i := 0; i < opts.Nodes; i++ {
		c.startNode(wire.NodeID(i))
	}
	return c
}

func (c *Cluster) startNode(id wire.NodeID) *core.Node {
	var reg *obs.Registry
	if c.opts.Observability {
		reg = obs.NewRegistry()
	}
	// A restarted node gets its previous incarnation's driver back.
	stg := c.stores[id]
	if stg == nil && c.opts.Storage != nil {
		stg = c.opts.Storage(id)
		c.stores[id] = stg
	}
	n := core.NewNode(id, c.fabric.Node(id), c.mgr.Agent(id), stg, reg, c.opts.Config)
	c.mu.Lock()
	c.nodes[id] = n
	c.mu.Unlock()
	return n
}

// Node returns node i.
func (c *Cluster) Node(i int) *core.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[wire.NodeID(i)]
}

// Nodes returns the number of nodes ever started.
func (c *Cluster) Nodes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// Manager exposes the cluster's view-service client: the membership handle
// (View, Fail, Join, Leave, WaitEpoch, RecoveryPending, Placement).
func (c *Cluster) Manager() *viewsvc.Client { return c.mgr }

// Obs returns node i's observability registry (nil unless the cluster was
// built with Options.Observability, or a watchdog age armed a private one).
func (c *Cluster) Obs(i int) *obs.Registry {
	n := c.Node(i)
	if n == nil {
		return nil
	}
	return n.Obs()
}

// ViewObs returns the cluster-level registry holding the shared view-service
// client's metrics (nil without Options.Observability).
func (c *Cluster) ViewObs() *obs.Registry { return c.viewObs }

// ViewService exposes the view-service ensemble (tests and tooling).
func (c *Cluster) ViewService() *viewsvc.Ensemble { return c.views }

// KillViewReplica crash-stops view-service replica k (0-based ensemble
// index). The data plane must keep working as long as a replica quorum
// survives; killing the leader triggers a ballot takeover.
func (c *Cluster) KillViewReplica(k int) error {
	if k < 0 || k >= len(c.vsIDs) {
		return fmt.Errorf("cluster: no view replica %d", k)
	}
	c.fabric.SetDown(c.vsIDs[k], true)
	return nil
}

// Live returns the current live set.
func (c *Cluster) Live() wire.Bitmap { return c.mgr.View().Live }

// DirShards returns the directory shard count of the committed placement.
func (c *Cluster) DirShards() int { return len(c.mgr.Placement().Shards) }

// DirDrivers returns the arbitration driver set for obj under the current
// placement.
func (c *Cluster) DirDrivers(obj wire.ObjectID) wire.Bitmap {
	return c.mgr.Placement().DriversFor(obj)
}

// Kill crash-stops node i and waits for the view change and the recovery
// barrier to complete.
func (c *Cluster) Kill(i int) error {
	id := wire.NodeID(i)
	c.fabric.SetDown(id, true)
	before := c.mgr.View().Epoch
	c.mgr.Fail(id)
	return c.awaitRemoval(before, fmt.Sprintf("killing %d", i))
}

// awaitRemoval waits for the view change that removes a node (the epoch after
// before) and for the recovery barrier it opens to close.
func (c *Cluster) awaitRemoval(before wire.Epoch, after string) error {
	if !c.mgr.WaitEpoch(before+1, 5*time.Second) {
		return fmt.Errorf("cluster: view change after %s timed out", after)
	}
	if !c.waitRecoveryDrained(5 * time.Second) {
		return fmt.Errorf("cluster: recovery barrier after %s timed out", after)
	}
	return nil
}

// errRecoveryPending drives waitRecoveryDrained's retry.Do poll; never
// escapes.
var errRecoveryPending = fmt.Errorf("cluster: recovery barrier open")

// waitRecoveryDrained polls the client's recovery barrier through the
// shared retry machinery (fixed 200 µs probes, bounded by timeout); it
// reports whether the barrier closed in time.
func (c *Cluster) waitRecoveryDrained(timeout time.Duration) bool {
	err := retry.Do(nil, retry.Policy{
		InitialBackoff: 200 * time.Microsecond,
		MaxBackoff:     200 * time.Microsecond,
		Multiplier:     1,
		Jitter:         -1,
		MaxElapsed:     timeout,
	}, nil, func(int) error {
		if c.mgr.RecoveryPending() {
			return errRecoveryPending
		}
		return nil
	})
	return err == nil
}

// Restart reincarnates node i from its retained durable storage, as a
// process restart would: shut down what is left of the old instance (its
// endpoint is the fabric's and is asked for again), recover the store from
// the WAL + snapshot, and rejoin — core.Node.Rejoin, which also evicts the old
// incarnation first if the node was never Killed. Returns the new node once it
// is serving.
func (c *Cluster) Restart(i int) (*core.Node, error) {
	id := wire.NodeID(i)
	c.mu.RLock()
	old, ok := c.nodes[id]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no node %d to restart", i)
	}
	old.Close()
	c.fabric.SetDown(id, false)
	// A fresh agent: the dead instance's callbacks must not see the
	// rejoin's view changes.
	c.mgr.ResetAgent(id)
	n := c.startNode(id)
	return n, n.Rejoin(c.mgr, "", 5*time.Second)
}

// AddNode starts a fresh node with the next id and joins it to the
// membership (scale-out, Fig. 15).
func (c *Cluster) AddNode() *core.Node {
	id := wire.NodeID(c.Nodes())
	n := c.startNode(id)
	c.mgr.Join(id)
	return n
}

// Leave removes node i gracefully (scale-in) and waits for recovery.
func (c *Cluster) Leave(i int) error {
	id := wire.NodeID(i)
	before := c.mgr.View().Epoch
	c.mgr.Leave(id)
	err := c.awaitRemoval(before, fmt.Sprintf("node %d's leave", i))
	if err == nil {
		c.fabric.SetDown(id, true)
	}
	return err
}

// everyNode returns the current incarnation of every node ever started, in
// id order.
func (c *Cluster) everyNode() []*core.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	nodes := make([]*core.Node, 0, len(c.nodes))
	for id := wire.NodeID(0); len(nodes) < len(c.nodes); id++ {
		if n, ok := c.nodes[id]; ok {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// Close shuts everything down.
func (c *Cluster) Close() {
	for _, n := range c.everyNode() {
		n.Close()
	}
	c.mgr.Close()
	c.views.Close()
	c.fabric.Close()
}

// Messages returns the traffic the fabric carried so far, view service
// included; the unit is the fabric's (see the package doc).
func (c *Cluster) Messages() uint64 { return c.fabric.Messages() }

// Bytes returns the bytes of that traffic.
func (c *Cluster) Bytes() uint64 { return c.fabric.Bytes() }

// Seed bulk-installs an object without running the protocols: the owner, the
// readers and the directory each apply the same grant, ⟨1, owner⟩, and a
// replica's carries the initial value. This models the benchmarks' initial
// sharding (the paper: "The initial sharding of all systems is the same").
// Being a grant, a second Seed of an object cannot take o_ts or a version
// back, and a node it leaves out drops its copy. Seed adopts data as a
// transaction's Set does: the slice, capacity clipped (an empty one as nil), is
// the version every replica shares, so the caller must not write it after the
// call; one slice that nobody writes may seed many objects. A value that
// would not fit an R-INV on its own (wire.UpdateSize over wire.MaxBlob) is
// refused with wire.ErrTooLarge, and nothing is installed.
func (c *Cluster) Seed(obj wire.ObjectID, owner wire.NodeID, readers wire.Bitmap, data []byte) error {
	if size := wire.UpdateSize(len(data)); size > wire.MaxBlob {
		return fmt.Errorf("cluster: seeding %d bytes, over the %d one R-INV carries: %w", size, wire.MaxBlob, wire.ErrTooLarge)
	}
	reps := wire.ReplicaSet{Owner: owner, Readers: readers.Remove(owner)}
	ts := wire.OTS{Ver: 1, Node: owner}
	if data = slices.Clip(data); len(data) == 0 {
		data = nil
	}
	// Directory entries land at the object's arbitration drivers.
	targets := reps.All().Union(c.DirDrivers(obj))
	c.mu.RLock()
	defer c.mu.RUnlock()
	for id := range targets.Each {
		n := c.nodes[id]
		if n == nil {
			continue
		}
		var val store.Shipped
		if reps.LevelOf(id) != wire.NonReplica {
			val = store.Shipped{Has: true, Version: 1, Data: data}
		}
		o, _ := n.Store().GetOrCreate(obj)
		o.Mu.Lock()
		o.GrantLocked(id, ts, reps, val)
		o.Mu.Unlock()
	}
	return nil
}

// SeedRange seeds objects [from, from+count) round-robin across owners with
// the default degree-1 readers after each owner, all with the same value, and
// stops at the first refusal.
func (c *Cluster) SeedRange(from wire.ObjectID, count int, data []byte) error {
	live := c.Live()
	nodes := live.Nodes()
	for i := 0; i < count; i++ {
		owner := nodes[i%len(nodes)]
		if err := c.Seed(from+wire.ObjectID(i), owner, core.DefaultReaders(live, owner, c.opts.Degree), data); err != nil {
			return err
		}
	}
	return nil
}

// SeedAt seeds one object at an explicit owner with the live view's
// core.DefaultReaders, adopting data as Seed does.
func (c *Cluster) SeedAt(obj wire.ObjectID, owner wire.NodeID, data []byte) error {
	return c.Seed(obj, owner, core.DefaultReaders(c.Live(), owner, c.opts.Degree), data)
}

// WaitIdle waits for every node's commit pipelines to drain.
func (c *Cluster) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for _, n := range c.everyNode() {
		left := time.Until(deadline)
		if left <= 0 || !n.CommitEngine().WaitIdle(left) {
			return false
		}
	}
	return true
}
