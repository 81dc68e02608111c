package viewsvc

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/wire"
)

// ChangeFunc observes a view change. removed is the set of nodes that left
// between the two views (non-empty ⇒ failure recovery is required).
type ChangeFunc func(old, new wire.View, removed wire.Bitmap)

// RecoveredFunc observes completion of the post-failure recovery barrier.
type RecoveredFunc func(epoch wire.Epoch)

// Agent is a node's local view of the membership (§3.1): the engines inside
// the node read the view and the directory placement from it, register
// ChangeFunc/RecoveredFunc callbacks, and report recovery completion through
// it. The client that created it (Client.Agent) feeds it committed state.
type Agent struct {
	self wire.NodeID
	cli  *Client

	// placement is the node's cached directory placement (§6.2): one atomic
	// load on the ownership request path, updated by the client's state
	// fan-out strictly before the view change it belongs to.
	placement atomic.Pointer[wire.DirPlacement]

	mu          sync.Mutex
	view        wire.View
	before      *wire.DirPlacement // see PlacementBefore
	changed     chan struct{}      // closed and replaced on every view change
	onChange    []ChangeFunc
	onRecovered []RecoveredFunc
}

// Agent creates (or returns) the agent embedded in node id. The agent starts
// with the client's current view and placement.
func (c *Client) Agent(id wire.NodeID) *Agent {
	c.agentMu.Lock()
	defer c.agentMu.Unlock()
	if a, ok := c.agents[id]; ok {
		return a
	}
	a := &Agent{self: id, cli: c, view: c.View(), changed: make(chan struct{})}
	a.placement.Store(c.placement.Load())
	c.agents[id] = a
	return a
}

// ResetAgent discards the cached agent for node id, so the next Agent(id)
// call builds a fresh one. Restart harnesses call it between a node's death
// and its reincarnation: the dead node's agent still carries the old node's
// callbacks, and handing it to the new instance would deliver view changes
// into torn-down engines.
func (c *Client) ResetAgent(id wire.NodeID) {
	c.agentMu.Lock()
	delete(c.agents, id)
	c.agentMu.Unlock()
}

// Placement returns the latest committed directory placement (§6.2). The
// returned value and its shard slice are immutable.
func (c *Client) Placement() *wire.DirPlacement { return c.placement.Load() }

// fanoutState propagates replicated side-state (the directory placement) to
// every agent. The pump runs it before the view-change callbacks of the same
// state, so engines reacting to a view change always see its placement.
func (c *Client) fanoutState(s wire.VSState) {
	if s.Placement.IsZero() {
		return
	}
	p := s.Placement
	c.agentMu.Lock()
	c.placement.Store(&p)
	for _, a := range c.agents {
		a.placement.Store(&p)
	}
	c.agentMu.Unlock()
}

// liveAgents snapshots the agents of nodes live in the given set, in id
// order (deterministic notification order).
func (c *Client) liveAgents(live wire.Bitmap) []*Agent {
	c.agentMu.Lock()
	out := make([]*Agent, 0, len(c.agents))
	for id, a := range c.agents {
		if live.Contains(id) {
			out = append(out, a)
		}
	}
	c.agentMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].self < out[j].self })
	return out
}

// fanoutView delivers a committed view change to the agents of surviving
// nodes (agents of removed nodes must not observe their own removal). before
// is the placement of the state the view change replaces.
func (c *Client) fanoutView(old, next wire.View, removed wire.Bitmap, before *wire.DirPlacement) {
	for _, a := range c.liveAgents(next.Live) {
		a.apply(old, next, removed, before)
	}
}

// fanoutRecovered delivers barrier completion to the live agents.
func (c *Client) fanoutRecovered(live wire.Bitmap, epoch wire.Epoch) {
	for _, a := range c.liveAgents(live) {
		a.notifyRecovered(epoch)
	}
}

// Self returns the node id this agent belongs to.
func (a *Agent) Self() wire.NodeID { return a.self }

// View returns the agent's current view.
func (a *Agent) View() wire.View {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.view
}

// Epoch returns the agent's current epoch id.
func (a *Agent) Epoch() wire.Epoch {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.view.Epoch
}

// Placement returns the replicated directory placement (§6.2); never nil.
// The returned value and its shard slice are immutable.
func (a *Agent) Placement() *wire.DirPlacement { return a.placement.Load() }

// PlacementBefore returns the placement that was in force before the view
// change last delivered to this agent (nil until the first one). It is the
// last placement the client heard, whether or not this node was live then —
// view changes are not delivered to a node outside the view, so a joiner's
// own record of "the placement I last saw" is its construction-time seed.
func (a *Agent) PlacementBefore() *wire.DirPlacement {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.before
}

// IsLive reports whether node n is live in the agent's view.
func (a *Agent) IsLive(n wire.NodeID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.view.Live.Contains(n)
}

// OnChange registers a view-change callback (engines register here).
func (a *Agent) OnChange(fn ChangeFunc) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onChange = append(a.onChange, fn)
}

// OnRecovered registers a recovery-barrier-complete callback.
func (a *Agent) OnRecovered(fn RecoveredFunc) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onRecovered = append(a.onRecovered, fn)
}

// ReportRecoveryDone tells the view service that this node has no more
// pending reliable commits from dead coordinators for the given epoch.
func (a *Agent) ReportRecoveryDone(epoch wire.Epoch) {
	a.cli.ReportRecoveryDone(epoch, a.self)
}

// Renew renews this node's lease.
func (a *Agent) Renew() { a.cli.Renew(a.self) }

// Lease returns how long a lease outlives its last renewal.
func (a *Agent) Lease() time.Duration { return a.cli.cfg.Lease }

// ChangeSignal returns a channel that is closed at the next view change;
// callers blocked on a back-off use it as an immediate wake signal to
// re-resolve ("the owner I was waiting on may just have been declared dead").
// Re-acquire a fresh channel after every wake.
func (a *Agent) ChangeSignal() <-chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.changed
}

func (a *Agent) apply(old, next wire.View, removed wire.Bitmap, before *wire.DirPlacement) {
	a.mu.Lock()
	if next.Epoch <= a.view.Epoch {
		a.mu.Unlock()
		return
	}
	a.view = next
	a.before = before
	close(a.changed)
	a.changed = make(chan struct{})
	fns := make([]ChangeFunc, len(a.onChange))
	copy(fns, a.onChange)
	a.mu.Unlock()
	for _, fn := range fns {
		fn(old, next, removed)
	}
}

func (a *Agent) notifyRecovered(epoch wire.Epoch) {
	a.mu.Lock()
	fns := make([]RecoveredFunc, len(a.onRecovered))
	copy(fns, a.onRecovered)
	a.mu.Unlock()
	for _, fn := range fns {
		fn(epoch)
	}
}
