package viewsvc

import (
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/obs"
	"zeus/internal/retry"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// Client is a deployment's handle on the view service: it caches the last
// committed state, receives state pushes (VSCommit), proposes membership
// commands, renews data-node leases, reports recovery-barrier progress, and
// fans every committed state out to the per-node agents it created (Agent).
//
// Clients never locate the leader: every proposal is multicast to the whole
// ensemble (only the leader acts; commands are deduplicated against the
// committed state) and retried until its effect is visible in the cached
// state, which makes proposals survive leader failure and ballot takeover
// without any redirect machinery.
type Client struct {
	cfg      Config
	tr       transport.Transport
	replicas []wire.NodeID
	ownsTr   bool      // Close closes tr only when the client installed on it
	ens      *Ensemble // self-hosted ensemble (NewSelfHosted only), closed with the client

	mu    sync.Mutex
	state wire.VSState
	heard bool // a state from the ensemble (vs the local seed) installed

	// placement caches the latest committed directory placement (§6.2); it
	// is fanned out to every agent's atomic slot so the ownership hot path
	// resolves object → drivers with one atomic load.
	placement atomic.Pointer[wire.DirPlacement]
	agentMu   sync.Mutex
	agents    map[wire.NodeID]*Agent

	// Renewal coalescing, entirely atomic — concurrent renewals never
	// serialize on the client mutex (or any mutex): Renew sets the node's
	// bit in renewPending; one multicast per throttle window carries the
	// whole bitmap (so renewal wire traffic is independent of the node
	// count), sent inline by whichever renewal crosses the window first
	// and swept by a background ticker for bits set inside it.
	renewPending atomic.Uint64
	renewFlushed atomic.Int64 // unix nanos of the last renewal multicast
	// leases is where each renewal multicast's record comes from: a
	// sixteenth of an allocation, like every other steady-state message.
	// Renew and the sweeper flush at once, so leaseMu serializes the Take.
	leaseMu sync.Mutex
	leases  wire.Chunk[wire.VSLeaseMsg]

	events chan wire.VSState
	closed chan struct{}
	once   sync.Once

	// obs holds the cached metric handles; nil (no registry) keeps the seed
	// paths. Set before the pump starts, read-only afterwards.
	obs *clientObs
}

// NewClient attaches a client to the ensemble at ids over tr, seeded with
// the deployment's initial view {epoch 1, members}. The client installs its
// handler on tr and subscribes to commit pushes with an initial query. reg,
// when non-nil, receives the client's metrics (epoch changes, recovery-barrier
// durations, lease-renewal lag).
func NewClient(cfg Config, tr transport.Transport, ids []wire.NodeID, members wire.Bitmap, reg *obs.Registry) *Client {
	return newClient(cfg, tr, ids, members, reg, true)
}

// NewSelfHosted is NewClient over a three-replica ensemble it starts itself
// on a private in-process fabric — the right shape for single-process
// harnesses that need a membership authority but no fault injection into it.
// Close stops the ensemble with the client.
func NewSelfHosted(cfg Config, members wire.Bitmap) *Client {
	hub := transport.NewHub()
	ids := ReplicaIDs(3)
	trs := make([]transport.Transport, len(ids))
	for i, id := range ids {
		trs[i] = hub.Node(id)
	}
	ens := StartEnsemble(cfg, ids, trs, members)
	c := NewClient(cfg, hub.Node(ClientID), ids, members, nil)
	c.ens = ens
	return c
}

// NewClientDetached is NewClient for callers that own the transport's
// handler themselves — a zeusd process routes data-plane and view-service
// traffic through one Router over one socket. The client installs nothing;
// route KindVSCommit and KindVSQuery to Handle. Close leaves the shared
// transport open.
func NewClientDetached(cfg Config, tr transport.Transport, ids []wire.NodeID, members wire.Bitmap, reg *obs.Registry) *Client {
	return newClient(cfg, tr, ids, members, reg, false)
}

func newClient(cfg Config, tr transport.Transport, ids []wire.NodeID, members wire.Bitmap, reg *obs.Registry, install bool) *Client {
	c := &Client{
		cfg:      cfg.withDefaults(),
		tr:       tr,
		replicas: append([]wire.NodeID(nil), ids...),
		ownsTr:   install,
		agents:   make(map[wire.NodeID]*Agent),
		events:   make(chan wire.VSState, 1024),
		closed:   make(chan struct{}),
	}
	c.state = wire.VSState{
		Index: 0, Epoch: 1, Live: members,
		Placement: wire.ComputePlacement(c.cfg.DirShards, dirDegree, 1, members),
		Addrs:     append([]wire.NodeAddr(nil), c.cfg.InitialAddrs...),
	}
	seed := c.state.Placement // a copy: c.state is overwritten on every install
	c.placement.Store(&seed)
	if reg != nil {
		c.obs = newClientObs(c, reg)
	}
	if install {
		tr.SetHandler(c.Handle)
	}
	go c.pump()
	go c.renewLoop()
	c.query()
	return c
}

// Close stops the client's goroutines (and its transport and ensemble, when
// owned).
func (c *Client) Close() {
	c.once.Do(func() {
		close(c.closed)
		if c.ownsTr {
			_ = c.tr.Close()
		}
		if c.ens != nil {
			c.ens.Close()
		}
	})
}

// View returns the cached committed view.
func (c *Client) View() wire.View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return wire.View{Epoch: c.state.Epoch, Live: c.state.Live}
}

// State returns the full cached committed state.
func (c *Client) State() wire.VSState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Heard reports whether the client has installed at least one state actually
// received from the ensemble — first contact. Until then State() is only the
// local seed (for an unseeded client: empty), so external tooling and
// joiners gate on Heard before trusting the cached view.
func (c *Client) Heard() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heard
}

// RecoveryPending reports whether a recovery barrier is open.
func (c *Client) RecoveryPending() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.Barrier != 0
}

// epochPollPolicy paces WaitEpoch's cached-state poll: fixed 200 µs probes
// (retrydiscipline: engine pacing goes through internal/retry); the query
// backstop keeps its own coarser retryEvery cadence.
var epochPollPolicy = retry.Policy{
	InitialBackoff: 200 * time.Microsecond,
	MaxBackoff:     200 * time.Microsecond,
	Multiplier:     1,
	Jitter:         -1,
}

// WaitEpoch blocks until the cached epoch reaches e or timeout elapses,
// querying the ensemble periodically as a lost-push backstop.
func (c *Client) WaitEpoch(e wire.Epoch, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	nextQuery := time.Now().Add(c.cfg.retryEvery())
	poll := epochPollPolicy.Start()
	for {
		c.mu.Lock()
		cur := c.state.Epoch
		c.mu.Unlock()
		if cur >= e {
			return true
		}
		now := time.Now()
		if now.After(deadline) {
			return false
		}
		if now.After(nextQuery) {
			c.query()
			nextQuery = now.Add(c.cfg.retryEvery())
		}
		wait, _ := poll.Next()
		_ = retry.Sleep(nil, wait, nil)
	}
}

// Renew renews node's lease: an atomic bit set, plus — at most once per
// throttle window across ALL nodes — one bitmap multicast, whose record the
// flush takes under leaseMu. That flush is the only lock on the path.
func (c *Client) Renew(node wire.NodeID) {
	if node >= wire.MaxNodes {
		return
	}
	c.renewPending.Or(1 << node)
	now := time.Now().UnixNano()
	last := c.renewFlushed.Load()
	if now-last < int64(c.cfg.Lease/4) {
		return // a recent flush covers us; the sweeper sends the rest
	}
	if c.renewFlushed.CompareAndSwap(last, now) {
		if ob := c.obs; ob != nil && last != 0 && now > last {
			ob.renewLagNS.Record(uint64(now - last))
		}
		c.flushRenewals()
	}
}

// flushRenewals multicasts (and clears) the pending renewal bitmap.
func (c *Client) flushRenewals() {
	bits := c.renewPending.Swap(0)
	if bits == 0 {
		return
	}
	c.leaseMu.Lock()
	m := c.leases.Take()
	c.leaseMu.Unlock()
	m.Nodes = wire.Bitmap(bits)
	_ = c.tr.Multicast(c.replicas, m)
	transport.Flush(c.tr)
}

// renewLoop sweeps renewal bits that arrived inside a throttle window. The
// floor keeps idle clients from ticking hot on millisecond-scale leases
// (the inline flush in Renew covers first renewals immediately).
func (c *Client) renewLoop() {
	every := c.cfg.Lease / 4
	if every < 2*time.Millisecond {
		every = 2 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			if c.renewPending.Load() != 0 {
				now := time.Now().UnixNano()
				prev := c.renewFlushed.Swap(now)
				if ob := c.obs; ob != nil && prev != 0 && now > prev {
					ob.renewLagNS.Record(uint64(now - prev))
				}
				c.flushRenewals()
			}
		}
	}
}

// Fail reports a crashed node: the membership of it that the cached view
// lists, named by its join epoch (VSState.JoinEpoch). It returns immediately
// (the view change happens after the lease expires); a background loop
// re-proposes until that membership is over, so the report survives
// view-service leader crashes and never ends a later one — a restart that
// rejoined is a new member, and the view service drops a report about an
// earlier membership.
func (c *Client) Fail(node wire.NodeID) {
	if node >= wire.MaxNodes {
		return
	}
	s := c.State()
	joined := s.JoinEpoch(node)
	c.flushRenewals() // a report never overtakes a renewal this client holds back
	go c.driveUntil(wire.VSCommand{Op: wire.VSFail, Node: node, Epoch: joined}, func(s wire.VSState) bool {
		return !s.Live.Contains(node) || s.JoinEpoch(node) != joined
	}, c.cfg.Lease+10*time.Second)
}

// Join adds a node (scale-out) and blocks until the view reflects it.
// It reports false if the ensemble could not commit the change in time
// (e.g. no replica quorum survives).
func (c *Client) Join(node wire.NodeID) bool {
	return c.JoinAddr(node, "")
}

// JoinAddr is Join carrying the node's advertised endpoint: the committed
// state records it in the replicated address book (VSState.Addrs), so
// joiners discover peers from the ensemble instead of static peer lists.
func (c *Client) JoinAddr(node wire.NodeID, addr string) bool {
	return c.driveUntil(wire.VSCommand{Op: wire.VSJoin, Node: node, Addr: addr}, func(s wire.VSState) bool {
		return s.Live.Contains(node)
	}, 5*time.Second)
}

// Leave removes a node gracefully and blocks until the view reflects it;
// false means the ensemble could not commit the change in time.
func (c *Client) Leave(node wire.NodeID) bool {
	return c.driveUntil(wire.VSCommand{Op: wire.VSLeave, Node: node}, func(s wire.VSState) bool {
		return !s.Live.Contains(node)
	}, 5*time.Second)
}

// ReportRecoveryDone records that node finished replaying pending reliable
// commits for epoch. Retried in the background until the barrier no longer
// expects the node.
func (c *Client) ReportRecoveryDone(epoch wire.Epoch, node wire.NodeID) {
	go c.driveUntil(wire.VSCommand{Op: wire.VSRecoveryDone, Node: node, Epoch: epoch}, func(s wire.VSState) bool {
		// Only a state that has SEEN this barrier can prove the report landed.
		// The report is made from inside the pump's view-change callbacks,
		// before the state that opened the barrier is installed in the cache —
		// so a cache with no barrier at all (BarrierEpoch < epoch) is merely
		// stale, and reading its Barrier == 0 as success would drop the report
		// and wedge the barrier. BarrierEpoch > epoch means a newer failure
		// superseded this barrier and the report is moot.
		return s.BarrierEpoch > epoch || (s.BarrierEpoch == epoch && !s.Barrier.Contains(node))
	}, 10*time.Second)
}

// driveUntil multicasts cmd to the ensemble until the cached state satisfies
// done, reporting whether it did before the deadline (false ⇒ the ensemble
// made no progress, e.g. quorum lost). Commands are deduplicated leader-side,
// so the retries cost only wire traffic.
func (c *Client) driveUntil(cmd wire.VSCommand, done func(wire.VSState) bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		s := c.state
		c.mu.Unlock()
		if done(s) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		_ = c.tr.Multicast(c.replicas, &wire.VSPropose{Cmd: cmd})
		transport.Flush(c.tr)
		// Fine-grained wait: re-check the cache well before the next
		// re-proposal is due (the command usually commits in microseconds).
		next := time.Now().Add(c.cfg.retryEvery())
		for time.Now().Before(next) {
			c.mu.Lock()
			s = c.state
			c.mu.Unlock()
			if done(s) {
				return true
			}
			select {
			case <-c.closed:
				return false
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
}

// query asks every replica for its committed state (the responses heal any
// missed push; the Index guard drops stale ones).
func (c *Client) query() {
	_ = c.tr.Multicast(c.replicas, &wire.VSQuery{})
	transport.Flush(c.tr)
}

// Handle consumes one view-service message; it is the transport handler of
// attached clients and the Router target of detached ones.
func (c *Client) Handle(_ wire.NodeID, m wire.Msg) {
	switch v := m.(type) {
	case *wire.VSCommit:
		c.enqueue(v.State)
	case *wire.VSQuery:
		if v.Resp {
			c.enqueue(v.State)
		}
	}
}

// enqueue hands a received committed state to the pump. Installation happens
// THERE, not here: the cached state (what View/WaitEpoch/RecoveryPending
// observe) must only advance after the callbacks for everything it implies
// have run, otherwise a caller polling RecoveryPending could see the barrier
// closed while the recovered callbacks are still in flight and read
// not-yet-recovered engine state.
func (c *Client) enqueue(s wire.VSState) {
	select {
	case c.events <- s:
	case <-c.closed:
	}
}

// pump serializes state installation and notification delivery in commit
// order (view changes strictly before the barrier completion that follows
// them). Barrier completion is derived from the state *transition*
// (open → closed), not from the VSCommit flag: a query response from a
// lagging replica may deliver the closing state before (and thereby
// suppress, via the Index guard) the leader's flagged push, and the
// transition rule also covers a client that healed across several missed
// commits in one jump.
func (c *Client) pump() {
	for {
		var s wire.VSState
		select {
		case <-c.closed:
			return
		case s = <-c.events:
		}
		c.mu.Lock()
		// Index guard, with one exception: the very first state actually
		// received from the ensemble is installed even at the seed's index.
		// A founded-but-idle ensemble has committed nothing (renewals are
		// lease-table multicasts, not log commands), so its query responses
		// carry Index 0 — a fresh client (zeusctl, a joining zeusd) would
		// otherwise never learn the live set or the address book. Equal-
		// index adoption is safe: the content matches any honest seed, no
		// view-change or recovery edge can derive from it, and Heard lets
		// callers use first contact as the readiness signal.
		if s.Index < c.state.Index || (s.Index == c.state.Index && c.heard) {
			c.mu.Unlock()
			continue
		}
		old := wire.View{Epoch: c.state.Epoch, Live: c.state.Live}
		oldBarrier := c.state.Barrier
		next := wire.View{Epoch: s.Epoch, Live: s.Live}
		removed := old.Live &^ next.Live
		viewChanged := next.Epoch > old.Epoch
		recovered := s.Barrier == 0 && (oldBarrier != 0 || (viewChanged && removed != 0))
		before := c.state.Placement
		c.mu.Unlock()
		if ob := c.obs; ob != nil {
			if viewChanged {
				ob.epochChanges.Inc()
				if removed != 0 {
					ob.barrierStart = time.Now()
				}
			}
			if recovered {
				if ob.barrierStart.IsZero() {
					// Recovery completed within one state push: the
					// barrier was never observed open, but the owner-kill
					// still recovered — record a zero-length barrier so
					// every recovery leaves a sample.
					ob.barrierNS.Record(0)
				} else {
					ob.barrierNS.RecordSince(ob.barrierStart)
					ob.barrierStart = time.Time{}
				}
			}
		}
		// Callbacks first, install second: by the time WaitEpoch or
		// RecoveryPending observe the new state, its consequences (engine
		// pause/recovery/resume) have fully propagated.
		c.fanoutState(s)
		if viewChanged {
			c.fanoutView(old, next, removed, &before)
		}
		if recovered {
			c.fanoutRecovered(next.Live, s.BarrierEpoch)
		}
		c.mu.Lock()
		c.state = s
		c.heard = true
		c.mu.Unlock()
	}
}
