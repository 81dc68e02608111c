// Package cluster assembles an in-process Zeus deployment: N core nodes over
// either the perfect in-memory fabric (Hub) or the lossy simulated network
// (netsim + reliable transport), one view-service ensemble and its client,
// and helpers for failure injection, scale-out and bulk data seeding.
//
// This is the substitute for the paper's six-server testbed: benchmarks and
// experiments run against a Cluster.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"zeus/internal/core"
	"zeus/internal/netsim"
	"zeus/internal/obs"
	"zeus/internal/ownership"
	"zeus/internal/retry"
	"zeus/internal/storage"
	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// FabricKind selects the network substrate.
type FabricKind int

const (
	// FabricMem is the perfect in-process hub (fast; unit tests, benches).
	FabricMem FabricKind = iota
	// FabricSim is the lossy simulated network under the reliable
	// transport (protocol stress, fault injection).
	FabricSim
	// FabricTCP runs every endpoint over real loopback TCP sockets
	// (transport.TCP with ":0" listeners and an in-process address book):
	// in-process nodes, real syscalls — the load harness's "over TCP"
	// configuration. Failure injection (Kill, Leave, KillViewReplica) is
	// unsupported: TCP has no SetDown switch.
	FabricTCP
)

// Options configures a cluster.
type Options struct {
	Nodes   int
	Degree  int
	Workers int
	// DispatchShards forwards to core.Config: handler goroutines for keyed
	// inbound traffic (0 = min(Workers, GOMAXPROCS), <=1 inline, negative
	// forces inline).
	DispatchShards int
	Fabric         FabricKind
	// Net configures the simulated fabric (FabricSim only).
	Net netsim.Config
	// Reliable overrides the reliable transport's tuning for FabricSim
	// clusters (batching thresholds, flush interval, delayed acks, RTO).
	// Zero fields keep the defaults derived from Net's latency scale.
	Reliable transport.ReliableConfig
	// Lease is the membership lease duration.
	Lease time.Duration
	// ViewReplicas is the view-service ensemble size (default 3; values
	// above 3 clamp — the reserved transport-id range 61..63 caps the
	// ensemble). The replicas live on the cluster's own fabric, so
	// fault-injection tests can crash them like any node.
	ViewReplicas int
	// View overrides the view-service tuning (heartbeat, takeover). Zero
	// fields derive from Lease. View.DirShards is the one place the
	// ownership directory's shard count (§6.2) is set: each shard is driven
	// by up to three nodes rendezvous-hashed from the live view, and every
	// node follows the shard→drivers placement the view service replicates.
	// Zero or negative picks the host-scaled default.
	View viewsvc.Config
	// TrimReplicas forwards to core.Config.
	TrimReplicas bool
	// SnapshotReads / SafeTimeInterval forward to core.Config: MVCC
	// snapshot reads from any replica at the quorum-advanced safe-time.
	SnapshotReads    bool
	SafeTimeInterval time.Duration
	// OnOwnershipLatency observes ownership request latencies (Fig. 12).
	OnOwnershipLatency func(time.Duration)
	// Storage builds the per-node durable storage driver; nil keeps nodes
	// memory-only. The cluster memoizes the driver per node id, so a
	// restarted node recovers from the SAME driver its previous
	// incarnation wrote (drivers exposing Reopen() — memstorage — are
	// reopened across the in-process restart).
	Storage func(wire.NodeID) storage.Storage
	// Observability gives every node its own obs.Registry (metrics, traces,
	// incidents — reachable via Cluster.Obs) plus a cluster-level registry
	// for the shared view-service client (ViewObs). FabricSim endpoints
	// additionally scrape their reliable-transport counters into the node's
	// registry. Off by default: benchmarks measure the nil-registry paths
	// unless they opt in.
	Observability bool
	// TraceSample forwards to core.Config: sample every Nth write
	// transaction with a per-phase trace. Requires Observability.
	TraceSample uint64
	// WatchdogAge forwards to core.Config: arm the commit-engine debt
	// watchdog at this slot-age threshold (0 defers to ZEUS_WATCHDOG_AGE).
	WatchdogAge time.Duration
}

// DefaultOptions mirrors the paper's setup: 3-way replication.
func DefaultOptions(nodes int) Options {
	return Options{
		Nodes:        nodes,
		Degree:       3,
		Workers:      8,
		Fabric:       FabricMem,
		Lease:        2 * time.Millisecond,
		TrimReplicas: true,
	}
}

// Cluster is an in-process Zeus deployment.
type Cluster struct {
	opts   Options
	hub    *transport.Hub
	net    *netsim.Network
	mgr    *viewsvc.Client
	views  *viewsvc.Ensemble
	vsIDs  []wire.NodeID
	mu     sync.RWMutex // guards nodes/trs: Restart races test load loops
	nodes  map[wire.NodeID]*core.Node
	trs    map[wire.NodeID]transport.Transport
	stores map[wire.NodeID]storage.Storage // retained across Restart

	// viewObs (Options.Observability only) holds the shared view-service
	// client's metrics — epoch changes, recovery-barrier durations, lease
	// renew lag — which belong to the cluster, not to any one node.
	viewObs *obs.Registry

	// FabricTCP state: the address book maps every started endpoint to its
	// ":0"-bound listen address, and tcpTrs tracks the live transports so a
	// new endpoint's address propagates to all earlier ones (endpoints are
	// created before they carry traffic, so propagation is race-free).
	tcpMu   sync.Mutex
	tcpBook map[wire.NodeID]string
	tcpTrs  []*transport.TCP
}

// New builds and starts a cluster.
func New(opts Options) *Cluster {
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Degree <= 0 {
		opts.Degree = 3
	}
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.Lease <= 0 {
		opts.Lease = 2 * time.Millisecond
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
		nodes:  make(map[wire.NodeID]*core.Node),
		trs:    make(map[wire.NodeID]transport.Transport),
		stores: make(map[wire.NodeID]storage.Storage),
	}
	switch opts.Fabric {
	case FabricSim:
		c.net = netsim.New(opts.Net)
	case FabricTCP:
		c.tcpBook = make(map[wire.NodeID]string)
	default:
		c.hub = transport.NewHub()
	}
	// View service first: the ensemble and the membership client live on
	// reserved endpoint ids of the same fabric as the data nodes, so every
	// membership decision (epoch bump, lease expiry, recovery barrier)
	// crosses the wire — and tests can crash view replicas like any node.
	vcfg := c.opts.View
	if vcfg.Lease <= 0 {
		vcfg.Lease = opts.Lease
	}
	c.vsIDs = viewsvc.ReplicaIDs(opts.ViewReplicas)
	vtrs := make([]transport.Transport, len(c.vsIDs))
	for i, id := range c.vsIDs {
		vtrs[i] = c.endpoint(id)
	}
	c.views = viewsvc.StartEnsemble(vcfg, c.vsIDs, vtrs, members)
	if opts.Observability {
		c.viewObs = obs.NewRegistry()
	}
	c.mgr = viewsvc.NewClient(vcfg, c.endpoint(viewsvc.ClientID), c.vsIDs, members, c.viewObs)
	for i := 0; i < opts.Nodes; i++ {
		c.startNode(wire.NodeID(i))
	}
	return c
}

// endpoint attaches a transport for id to the cluster's fabric.
func (c *Cluster) endpoint(id wire.NodeID) transport.Transport {
	if c.net != nil {
		return transport.NewReliable(c.net.Endpoint(id), c.reliableCfg())
	}
	if c.tcpBook != nil {
		return c.tcpEndpoint(id)
	}
	return c.hub.Node(id)
}

// tcpEndpoint starts a loopback TCP listener for id and threads its address
// through the in-process book: the new transport gets every existing peer's
// address, and every existing transport learns the new one — the same
// propagation zeusd gets from the replicated address book, minus the wire.
func (c *Cluster) tcpEndpoint(id wire.NodeID) transport.Transport {
	c.tcpMu.Lock()
	defer c.tcpMu.Unlock()
	tr, err := transport.NewTCP(id, "127.0.0.1:0", c.tcpBook)
	if err != nil {
		panic(fmt.Sprintf("cluster: tcp endpoint %d: %v", id, err))
	}
	addr := tr.Addr()
	c.tcpBook[id] = addr
	for _, peer := range c.tcpTrs {
		peer.SetAddr(id, addr)
	}
	c.tcpTrs = append(c.tcpTrs, tr)
	return tr
}

// reliableCfg derives the reliable-transport tuning from the fabric's
// latency scale (FabricSim only).
func (c *Cluster) reliableCfg() transport.ReliableConfig {
	rc := c.opts.Reliable
	if rc.RTO <= 0 {
		rc.RTO = transport.DefaultReliableConfig().RTO
		// Scale the initial retransmission timeout with the fabric's
		// latency so slow-motion fabrics do not trigger spurious
		// retransmits before the adaptive estimator has RTT samples;
		// the floor keeps the adapted RTO above one round trip.
		if rto := 4*c.opts.Net.MaxLatency + 2*time.Millisecond; rto > rc.RTO {
			rc.RTO = rto
		}
	}
	if rc.MinRTO <= 0 {
		if min := 2 * c.opts.Net.MaxLatency; min > rc.MinRTO {
			rc.MinRTO = min // NewReliable floors this at 2×FlushInterval
		}
	}
	if rc.DeliveryDepth <= 0 {
		rc.DeliveryDepth = transport.DefaultReliableConfig().DeliveryDepth
	}
	return rc
}

func (c *Cluster) startNode(id wire.NodeID) *core.Node {
	tr := c.endpoint(id)
	ocfg := ownership.DefaultConfig()
	ocfg.OnLatency = c.opts.OnOwnershipLatency
	renew := c.opts.Lease / 3
	if renew < time.Millisecond {
		renew = time.Millisecond
	}
	cfg := core.Config{
		Degree:           c.opts.Degree,
		Workers:          c.opts.Workers,
		DispatchShards:   c.opts.DispatchShards,
		TrimReplicas:     c.opts.TrimReplicas,
		LeaseRenewEvery:  renew,
		Ownership:        ocfg,
		SnapshotReads:    c.opts.SnapshotReads,
		SafeTimeInterval: c.opts.SafeTimeInterval,
	}
	if c.opts.Observability {
		cfg.Obs = obs.NewRegistry()
		cfg.TraceSample = c.opts.TraceSample
		cfg.WatchdogAge = c.opts.WatchdogAge
		// FabricSim and FabricTCP: the node's endpoint scrapes its frame and
		// socket counters into the same registry (FabricMem's hub is perfect
		// and carries cluster-wide totals via Messages/Bytes instead).
		if counted, ok := tr.(interface{ RegisterObs(*obs.Registry) }); ok {
			counted.RegisterObs(cfg.Obs)
		}
	}
	if c.opts.Storage != nil {
		stg, retained := c.stores[id]
		if !retained {
			stg = c.opts.Storage(id)
			c.stores[id] = stg
		} else if ro, ok := stg.(interface{ Reopen() }); ok {
			// The previous incarnation Closed the driver on shutdown; an
			// in-process restart reopens the same instance (memstorage)
			// the way a real process re-Opens its data directory.
			ro.Reopen()
		}
		cfg.Storage = stg
	}
	n := core.NewNode(id, tr, c.mgr.Agent(id), cfg)
	c.mu.Lock()
	c.nodes[id] = n
	c.trs[id] = tr
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
// built with Options.Observability, or ZEUS_WATCHDOG_AGE armed a private
// one).
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

// setDown toggles fabric reachability for id. It reports false on
// FabricTCP, which has no down switch (real sockets cannot be severed
// in-process without closing them for good).
func (c *Cluster) setDown(id wire.NodeID, down bool) bool {
	switch {
	case c.net != nil:
		c.net.SetDown(id, down)
	case c.hub != nil:
		c.hub.SetDown(id, down)
	default:
		return false
	}
	return true
}

// KillViewReplica crash-stops view-service replica k (0-based ensemble
// index). The data plane must keep working as long as a replica quorum
// survives; killing the leader triggers a ballot takeover.
func (c *Cluster) KillViewReplica(k int) error {
	if k < 0 || k >= len(c.vsIDs) {
		return fmt.Errorf("cluster: no view replica %d", k)
	}
	if !c.setDown(c.vsIDs[k], true) {
		return fmt.Errorf("cluster: failure injection unsupported on the TCP fabric")
	}
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
	if !c.setDown(id, true) {
		return fmt.Errorf("cluster: failure injection unsupported on the TCP fabric")
	}
	before := c.mgr.View().Epoch
	c.mgr.Fail(id)
	if !c.mgr.WaitEpoch(before+1, 5*time.Second) {
		return fmt.Errorf("cluster: view change after killing %d timed out", i)
	}
	if !c.waitRecoveryDrained(5 * time.Second) {
		return fmt.Errorf("cluster: recovery barrier after killing %d timed out", i)
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

// Restart reincarnates a previously Killed node from its retained durable
// storage, mirroring a real process restart: tear down what is left of the
// old instance (the fabric endpoint survives), recover the store from the
// WAL + snapshot, rejoin the view, and delta-sync divergent objects from the
// current owners. Returns the new node once it is serving.
func (c *Cluster) Restart(i int) (*core.Node, error) {
	id := wire.NodeID(i)
	c.mu.RLock()
	old, ok := c.nodes[id]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no node %d to restart", i)
	}
	// The old instance died mid-flight; release its engines and its WAL
	// without closing the shared fabric endpoint the new instance reuses.
	old.Shutdown(false)
	if !c.setDown(id, false) {
		return nil, fmt.Errorf("cluster: restart unsupported on the TCP fabric")
	}
	// A fresh agent: the dead instance's callbacks must not see the
	// rejoin's view changes.
	c.mgr.ResetAgent(id)
	n := c.startNode(id)
	// Join BEFORE sync: ownership transfers skip the data payload for
	// requesters already in the replica set, which is only sound if every
	// commit invalidates them — and commits only wait on LIVE replicas. A
	// node that state-synced while still outside the view could re-arm a
	// copy as valid and then miss the very next commit, leaving it
	// stale-but-valid in the set. Joining first closes that window: once
	// live, every commit reaches the node, and a sync answer that lost the
	// race against a newer invalidation is dropped by its version guard.
	before := c.mgr.View().Epoch
	c.mgr.Join(id)
	if !c.mgr.WaitEpoch(before+1, 5*time.Second) {
		return n, fmt.Errorf("cluster: rejoin view change for %d timed out", i)
	}
	if err := n.StateSync(5 * time.Second); err != nil {
		return n, err
	}
	return n, nil
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
	if !c.mgr.WaitEpoch(before+1, 5*time.Second) {
		return fmt.Errorf("cluster: leave view change timed out")
	}
	if !c.waitRecoveryDrained(5 * time.Second) {
		return fmt.Errorf("cluster: recovery barrier after leave timed out")
	}
	// On the TCP fabric the departed node cannot be isolated in place; the
	// membership leave already removed it from the view, which is all the
	// harness workloads need.
	c.setDown(id, true)
	return nil
}

// Close shuts everything down.
func (c *Cluster) Close() {
	c.mu.RLock()
	nodes := make([]*core.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.RUnlock()
	for _, n := range nodes {
		n.Close()
	}
	c.mgr.Close()
	c.views.Close()
	if c.net != nil {
		c.net.Close()
	}
	// FabricTCP: close any listeners still open (node/view shutdown closes
	// its own endpoints; Close is idempotent, so double closes are safe).
	c.tcpMu.Lock()
	trs := c.tcpTrs
	c.tcpTrs = nil
	c.tcpMu.Unlock()
	for _, tr := range trs {
		tr.Close()
	}
}

// Messages returns total messages carried: the hub's count, the simulated
// network's frames (FabricSim batches several messages into one), or the sum
// over the live TCP endpoints, view service included.
func (c *Cluster) Messages() uint64 {
	if c.hub != nil {
		return c.hub.Messages()
	}
	if c.net != nil {
		return c.net.Stats().Sent
	}
	return c.sumTCP((*transport.TCP).MessagesSent)
}

// Bytes returns total bytes carried: marshalled payload on the hub, frames
// with their headers on FabricSim and FabricTCP.
func (c *Cluster) Bytes() uint64 {
	if c.hub != nil {
		return c.hub.Bytes()
	}
	if c.net != nil {
		return c.net.Stats().Bytes
	}
	return c.sumTCP((*transport.TCP).BytesSent)
}

// sumTCP adds one counter over the cluster's TCP endpoints.
func (c *Cluster) sumTCP(counter func(*transport.TCP) uint64) uint64 {
	c.tcpMu.Lock()
	defer c.tcpMu.Unlock()
	var n uint64
	for _, tr := range c.tcpTrs {
		n += counter(tr)
	}
	return n
}

// Seed bulk-installs an object without running the protocols: the owner, the
// readers and the directory each apply the same grant, ⟨1, owner⟩, and a
// replica's carries the initial value. This models the benchmarks' initial
// sharding (the paper: "The initial sharding of all systems is the same").
// Being a grant, a second Seed of an object cannot take o_ts or a version
// back, and a node it leaves out drops its copy.
func (c *Cluster) Seed(obj wire.ObjectID, owner wire.NodeID, readers wire.Bitmap, data []byte) {
	reps := wire.ReplicaSet{Owner: owner, Readers: readers.Remove(owner)}
	ts := wire.OTS{Ver: 1, Node: owner}
	// With snapshot reads the ring is armed with a floor timestamp: HLC
	// timestamps are wall-clock-scale, so CTS 1 orders the seeded version
	// below every commit the cluster will ever mint while keeping it visible
	// to any snapshot (ts >= 1). Without them nothing would ever evict the
	// entry: the timestamp stays 0, "committed before timestamps existed",
	// and an ownership transfer re-publishes nothing either.
	var seedCTS uint64
	if c.opts.SnapshotReads {
		seedCTS = 1
	}
	// Directory entries land at the object's arbitration drivers.
	targets := reps.All().Union(c.DirDrivers(obj))
	for id := range targets.Each {
		n := c.Node(int(id))
		if n == nil {
			continue
		}
		var val store.Shipped
		if reps.LevelOf(id) != wire.NonReplica {
			val = store.Shipped{Has: true, CTS: seedCTS, Version: 1, Data: append([]byte(nil), data...)}
		}
		o, _ := n.Store().GetOrCreate(obj)
		o.Mu.Lock()
		o.GrantLocked(id, ts, reps, val)
		o.Mu.Unlock()
	}
}

// SeedRange seeds objects [from, from+count) round-robin across owners with
// the default degree-1 readers after each owner, all with the same value.
func (c *Cluster) SeedRange(from wire.ObjectID, count int, data []byte) {
	live := c.Live().Nodes()
	for i := 0; i < count; i++ {
		obj := from + wire.ObjectID(i)
		owner := live[i%len(live)]
		c.Seed(obj, owner, c.defaultReaders(owner), data)
	}
}

// SeedAt seeds one object at an explicit owner with default readers.
func (c *Cluster) SeedAt(obj wire.ObjectID, owner wire.NodeID, data []byte) {
	c.Seed(obj, owner, c.defaultReaders(owner), data)
}

// defaultReaders picks the Degree-1 live nodes that follow owner in id order,
// wrapping around.
func (c *Cluster) defaultReaders(owner wire.NodeID) wire.Bitmap {
	live := c.Live()
	after := live
	if live.Contains(owner) {
		after = live &^ (wire.Bitmap(1)<<(owner+1) - 1)
	}
	var readers wire.Bitmap
	for _, part := range [2]wire.Bitmap{after, live &^ after} {
		for cand := range part.Remove(owner).Each {
			if readers.Count() >= c.opts.Degree-1 {
				return readers
			}
			readers = readers.Add(cand)
		}
	}
	return readers
}

// WaitIdle waits for every node's commit pipelines to drain.
func (c *Cluster) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	c.mu.RLock()
	nodes := make([]*core.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.RUnlock()
	for _, n := range nodes {
		left := time.Until(deadline)
		if left <= 0 || !n.CommitEngine().WaitIdle(left) {
			return false
		}
	}
	return true
}
