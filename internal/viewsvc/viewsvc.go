// Package viewsvc implements the replicated membership (view) service the
// paper assumes (§3.1): a fault-tolerant, lease-protected authority that
// drives membership epochs and the post-failure recovery barrier (§5.1).
//
// The service is a small leader-driven replicated state machine in the style
// of Vertical Paxos — "Vertical-Paxos-lite":
//
//   - A fixed ensemble of replicas (three in production shape) orders
//     commands (node fail / join / leave, recovery-barrier reports) into a
//     quorum-acknowledged sequence.
//   - Ballots order leaderships: the leader for ballot b is replica b mod n.
//     Replicas promise ballots Paxos-style, so two leaderships can never
//     both reach quorum for the same index.
//   - Every command carries its full post-state (wire.VSState: epoch, live
//     set, open recovery barrier) instead of a log delta. Replication and
//     leader takeover are therefore state transfer keyed by a strictly
//     increasing commit index — no log replay, no snapshotting machinery.
//   - Failed nodes leave the view only after their lease expired at the
//     leader (lease table replicated via multicast renewals), preserving the
//     paper's "views change only after leases run out" invariant.
//
// Everything crosses the wire: replicas and clients talk VS-PROPOSE /
// VS-ACCEPT / VS-COMMIT / VS-LEASE / VS-QUERY messages over any
// transport.Transport (the in-process hub, the reliable transport over the
// simulated fabric, or TCP). A Client multicasts proposals to every replica —
// only the leader acts, commands are deduplicated against the committed
// state, so retries and duplicates are harmless — receives committed states
// as pushes, and fans them out to the Agents embedded in the data nodes.
//
// Leader failure: backups detect heartbeat silence and take over with a
// higher ballot staggered by rank, adopt the highest committed state and any
// accepted-but-uncommitted entry from a promise quorum, re-publish the
// committed state, and resume. Data-plane view changes keep flowing through
// the new leader; clients never need to locate the leader explicitly.
package viewsvc

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/shardmap"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// dirDegree is the target driver count per directory shard: the paper's
// directory replication degree, clamped to the live set.
const dirDegree = 3

// Config tunes the service.
type Config struct {
	// Lease is how long a data node's lease outlives its last renewal; a
	// failure report is applied only after the lease expired.
	Lease time.Duration
	// DirShards is the shard count of the sharded ownership directory
	// (§6.2) whose placement map the service replicates as part of its
	// state. Default: scaled with the host like the store's shards
	// (shardmap.ScaledCount). Every replica of one ensemble must agree —
	// the value only seeds the initial state; afterwards the committed
	// placement is authoritative.
	DirShards int
	// TakeoverAfter is how long a backup tolerates heartbeat silence
	// before starting a ballot takeover; backup k behind the leader waits
	// k*TakeoverAfter so the next-in-line wins uncontested. Default:
	// max(6*heartbeat, 10ms), where the leader's heartbeat period towards
	// the other replicas is Lease/2 clamped to [2ms, 25ms].
	TakeoverAfter time.Duration
	// InitialAddrs seeds the replicated address book (VSState.Addrs) with
	// the deployment's bootstrap endpoints: every replica and client of one
	// ensemble must be seeded identically (like DirShards, the value only
	// seeds the initial state; committed VSJoin commands carrying addresses
	// are authoritative afterwards).
	InitialAddrs []wire.NodeAddr
	// AutoFail makes the leader propose VSFail for live data nodes whose
	// lease renewals went silent for 2×Lease. In-process deployments leave
	// it off (tests report failures explicitly); multi-process deployments
	// (zeusd) turn it on — nobody else notices a SIGKILLed process.
	AutoFail bool

	// heartbeat is the leader's heartbeat period; withDefaults derives it
	// from Lease. The package's tests set it to beat faster than the floor.
	heartbeat time.Duration
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 10 * time.Millisecond
	}
	if c.DirShards <= 0 {
		c.DirShards = shardmap.ScaledCount(runtime.GOMAXPROCS(0))
	}
	if c.DirShards > wire.MaxDirShards {
		c.DirShards = wire.MaxDirShards
	}
	if c.heartbeat <= 0 {
		// The floor keeps millisecond-scale simulation leases from turning
		// the control plane into a busy loop on starved hosts; TakeoverAfter
		// floors at 10ms, so five beats still fit a takeover window.
		c.heartbeat = min(max(c.Lease/2, 2*time.Millisecond), 25*time.Millisecond)
	}
	if c.TakeoverAfter <= 0 {
		c.TakeoverAfter = max(6*c.heartbeat, 10*time.Millisecond)
	}
	return c
}

// retryEvery paces client-side proposal retry loops and the lost-push query
// backstop: Lease/2 clamped to [2ms, 50ms].
func (c Config) retryEvery() time.Duration {
	return min(max(c.Lease/2, 2*time.Millisecond), 50*time.Millisecond)
}

// entry is an accepted-but-uncommitted command with its post-state.
type entry struct {
	ballot    uint64
	cmd       wire.VSCommand
	state     wire.VSState
	done      bool       // this command closes the recovery barrier
	doneEpoch wire.Epoch // the barrier's epoch, when done
}

// Replica is one member of the view-service ensemble.
type Replica struct {
	cfg Config
	ids []wire.NodeID // ensemble transport ids; leader(b) = ids[b%n]
	idx int
	tr  transport.Transport

	mu       sync.Mutex
	promised uint64 // highest ballot promised (never accept below it)
	ballot   uint64 // current leadership ballot
	leading  bool   // this replica is the active leader for ballot
	state    wire.VSState
	acc      *entry      // accepted, uncommitted entry
	accAcked wire.Bitmap // replica indices that acked acc (leader side)
	queue    []wire.VSCommand
	pendFail map[wire.NodeID]*time.Timer // lease waits for reported failures
	subs     wire.Bitmap                 // client endpoints to push commits to
	beats    wire.Chunk[wire.VSLeaseMsg] // the leader's heartbeat records, taken under mu

	// Candidacy (ballot takeover) state.
	candBallot  uint64
	candSince   time.Time
	promises    wire.Bitmap
	bestState   wire.VSState
	bestAcc     *entry
	bestAccBlt  uint64
	lastContact atomic.Int64 // unix nanos of last leader sign of life

	// Lease renewals, one atomic slot per node: renewals never take mu, so
	// they cannot contend with (or on) the state machine.
	renewals [wire.MaxNodes]atomic.Int64

	closed chan struct{}
	once   sync.Once
}

// NewReplica starts ensemble member idx (of ids) on tr, serving the initial
// view {epoch 1, members}. The replica installs its handler on tr.
func NewReplica(cfg Config, ids []wire.NodeID, idx int, tr transport.Transport, members wire.Bitmap) *Replica {
	r := &Replica{
		cfg:      cfg.withDefaults(),
		ids:      append([]wire.NodeID(nil), ids...),
		idx:      idx,
		tr:       tr,
		leading:  idx == 0, // ballot 0's leader
		pendFail: make(map[wire.NodeID]*time.Timer),
		closed:   make(chan struct{}),
	}
	r.state = wire.VSState{
		Index: 0, Epoch: 1, Live: members,
		Placement: wire.ComputePlacement(r.cfg.DirShards, dirDegree, 1, members),
		Addrs:     append([]wire.NodeAddr(nil), r.cfg.InitialAddrs...),
	}
	now := time.Now().UnixNano()
	for _, n := range members.Nodes() {
		r.renewals[n].Store(now)
	}
	r.lastContact.Store(now)
	tr.SetHandler(r.handle)
	go r.loop()
	return r
}

// Close stops the replica (its transport stays owned by the caller).
func (r *Replica) Close() {
	r.once.Do(func() {
		close(r.closed)
		r.mu.Lock()
		for _, t := range r.pendFail {
			t.Stop()
		}
		r.mu.Unlock()
	})
}

// Ballot returns the replica's current ballot (tests and leader probes).
func (r *Replica) Ballot() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ballot
}

// State returns the replica's committed state.
func (r *Replica) State() wire.VSState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

func (r *Replica) quorum() int { return len(r.ids)/2 + 1 }

func (r *Replica) leaderIdx(ballot uint64) int { return int(ballot % uint64(len(r.ids))) }

// othersLocked returns the transport ids of the other ensemble members.
func (r *Replica) others() []wire.NodeID {
	out := make([]wire.NodeID, 0, len(r.ids)-1)
	for i, id := range r.ids {
		if i != r.idx {
			out = append(out, id)
		}
	}
	return out
}

func (r *Replica) multicast(m wire.Msg) {
	_ = r.tr.Multicast(r.others(), m)
	transport.Flush(r.tr)
}

// handle dispatches one inbound view-service message.
func (r *Replica) handle(from wire.NodeID, m wire.Msg) {
	switch v := m.(type) {
	case *wire.VSPropose:
		r.handlePropose(from, v)
	case *wire.VSAccept:
		switch v.Phase {
		case wire.VSPhaseAccept:
			r.handleAccept(from, v)
		case wire.VSPhaseAck:
			r.handleAck(from, v)
		case wire.VSPhasePrepare:
			r.handlePrepare(from, v)
		case wire.VSPhasePromise:
			r.handlePromise(from, v)
		}
	case *wire.VSCommit:
		r.handleCommit(v)
	case *wire.VSLeaseMsg:
		r.handleLease(from, v)
	case *wire.VSQuery:
		r.handleQuery(from, v)
	}
}

// ---------------------------------------------------------------------------
// Leader: proposals, lease waits, replication.
// ---------------------------------------------------------------------------

func (r *Replica) handlePropose(from wire.NodeID, m *wire.VSPropose) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs = r.subs.Add(from)
	if !r.leading {
		return
	}
	cmd := m.Cmd
	if !r.applicableLocked(cmd) || r.inFlightLocked(cmd) {
		return
	}
	if cmd.Op == wire.VSFail {
		// Lease protection (§3.1): the view change is deferred until the
		// failed node's lease expired. The timer re-checks leadership and
		// state when it fires; a client whose leader died mid-wait simply
		// re-proposes to the next leader. A node this replica has never
		// seen renew (e.g. it joined while this replica healed via state
		// transfer, skipping the VSJoin commit that seeds the table) is
		// conservatively treated as renewed NOW — waiting a full lease is
		// always safe; cutting one short never is.
		if _, dup := r.pendFail[cmd.Node]; dup {
			return
		}
		nanos := r.renewals[cmd.Node].Load()
		last := time.Unix(0, nanos)
		if nanos == 0 {
			last = time.Now()
		}
		wait := time.Until(last.Add(r.cfg.Lease))
		if wait < 0 {
			wait = 0
		}
		node := cmd.Node
		r.pendFail[node] = time.AfterFunc(wait, func() {
			r.mu.Lock()
			delete(r.pendFail, node)
			if r.leading && r.applicableLocked(cmd) && !r.inFlightLocked(cmd) {
				r.queue = append(r.queue, cmd)
				r.popQueueLocked()
			}
			r.mu.Unlock()
		})
		return
	}
	r.queue = append(r.queue, cmd)
	r.popQueueLocked()
}

// applicableLocked reports whether cmd would change the committed state.
func (r *Replica) applicableLocked(cmd wire.VSCommand) bool {
	s := &r.state
	switch cmd.Op {
	case wire.VSFail:
		return s.Live.Contains(cmd.Node) && s.JoinEpoch(cmd.Node) == cmd.Epoch
	case wire.VSLeave:
		return s.Live.Contains(cmd.Node)
	case wire.VSJoin:
		return !s.Live.Contains(cmd.Node)
	case wire.VSRecoveryDone:
		return s.Barrier != 0 && cmd.Epoch == s.BarrierEpoch && s.Barrier.Contains(cmd.Node)
	}
	return false
}

// inFlightLocked reports whether an equal command is queued or accepted.
func (r *Replica) inFlightLocked(cmd wire.VSCommand) bool {
	if r.acc != nil && r.acc.cmd == cmd {
		return true
	}
	for _, q := range r.queue {
		if q == cmd {
			return true
		}
	}
	return false
}

// applyCmd computes the post-state of cmd over s. ok is false for no-ops.
// Live-set changes deterministically recompute the directory placement
// (§6.2) as part of the same command, so the shard→drivers map is
// quorum-committed with the view it belongs to: a crashed driver's shards
// are re-driven exactly when its lease-protected removal commits, and a
// leader takeover adopts placement together with membership (state
// transfer, no separate consensus).
func applyCmd(s wire.VSState, cmd wire.VSCommand) (next wire.VSState, ok, done bool, doneEpoch wire.Epoch) {
	next = s
	next.Index++
	switch cmd.Op {
	case wire.VSFail, wire.VSLeave:
		if !s.Live.Contains(cmd.Node) || (cmd.Op == wire.VSFail && s.JoinEpoch(cmd.Node) != cmd.Epoch) {
			return s, false, false, 0 // not live, or a report about an earlier membership
		}
		next.Live = s.Live.Remove(cmd.Node)
		next.Joined = setJoined(s.Joined, cmd.Node, 0)
		next.Epoch = s.Epoch + 1
		next.Placement = s.Placement.Recompute(next.Epoch, next.Live)
		// Post-failure barrier (§5.1): every surviving node must replay
		// the dead node's pending reliable commits and report done.
		next.Barrier = next.Live
		next.BarrierEpoch = next.Epoch
		return next, true, false, 0
	case wire.VSJoin:
		if s.Live.Contains(cmd.Node) {
			return s, false, false, 0
		}
		next.Live = s.Live.Add(cmd.Node)
		next.Epoch = s.Epoch + 1
		next.Placement = s.Placement.Recompute(next.Epoch, next.Live)
		next.Joined = setJoined(s.Joined, cmd.Node, next.Epoch)
		if cmd.Addr != "" {
			// Joins carry the node's advertised endpoint; the address book
			// commits with the view it belongs to (copy-on-write — states
			// share the slice across replicas and pushes).
			next.Addrs = setAddr(s.Addrs, cmd.Node, cmd.Addr)
		}
		return next, true, false, 0
	case wire.VSRecoveryDone:
		if s.Barrier == 0 || cmd.Epoch != s.BarrierEpoch || !s.Barrier.Contains(cmd.Node) {
			return s, false, false, 0
		}
		next.Barrier = s.Barrier.Remove(cmd.Node)
		return next, true, next.Barrier == 0, next.BarrierEpoch
	}
	return s, false, false, 0
}

// setAddr returns a copy of the address book with node's endpoint set or
// replaced. Published books are immutable, so updates always copy.
func setAddr(book []wire.NodeAddr, node wire.NodeID, addr string) []wire.NodeAddr {
	out := make([]wire.NodeAddr, 0, len(book)+1)
	replaced := false
	for _, a := range book {
		if a.Node == node {
			a.Addr = addr
			replaced = true
		}
		out = append(out, a)
	}
	if !replaced {
		out = append(out, wire.NodeAddr{Node: node, Addr: addr})
	}
	return out
}

// setJoined returns a copy of the join record with node's entry set to epoch,
// or removed when epoch is 0. Published records are immutable, so updates
// always copy.
func setJoined(joined []wire.NodeEpoch, node wire.NodeID, epoch wire.Epoch) []wire.NodeEpoch {
	out := slices.DeleteFunc(slices.Clone(joined), func(j wire.NodeEpoch) bool { return j.Node == node })
	if epoch != 0 {
		out = append(out, wire.NodeEpoch{Node: node, Epoch: epoch})
	}
	return out
}

// popQueueLocked starts replicating the next queued command if none is in
// flight. Single-entry pipelining keeps takeover trivial (at most one
// uncommitted entry exists ensemble-wide per ballot).
func (r *Replica) popQueueLocked() {
	for r.acc == nil && len(r.queue) > 0 {
		cmd := r.queue[0]
		r.queue = r.queue[1:]
		next, ok, done, doneEpoch := applyCmd(r.state, cmd)
		if !ok {
			continue
		}
		r.acc = &entry{ballot: r.ballot, cmd: cmd, state: next, done: done, doneEpoch: doneEpoch}
		r.accAcked = wire.BitmapOf(wire.NodeID(r.idx))
		if len(r.ids) > 1 {
			r.multicast(&wire.VSAccept{
				Ballot: r.ballot, Phase: wire.VSPhaseAccept, Cmd: cmd, State: next,
			})
		}
		if r.accAcked.Count() >= r.quorum() {
			r.commitLocked()
		}
	}
}

// handleAccept runs at a follower replica: accept the entry if the ballot is
// current, adopt newer ballots, and ack to the leader.
func (r *Replica) handleAccept(from wire.NodeID, m *wire.VSAccept) {
	r.mu.Lock()
	if m.Ballot < r.promised {
		r.mu.Unlock()
		return
	}
	r.adoptBallotLocked(m.Ballot)
	r.lastContact.Store(time.Now().UnixNano())
	if m.State.Index > r.state.Index {
		r.acc = &entry{ballot: m.Ballot, cmd: m.Cmd, state: m.State}
	}
	r.mu.Unlock()
	_ = r.tr.Send(from, &wire.VSAccept{Ballot: m.Ballot, Phase: wire.VSPhaseAck, State: m.State})
	transport.Flush(r.tr)
}

// adoptBallotLocked moves to a newer ballot, dropping leadership and any
// pending lease waits (the new leader re-arms them from re-proposals).
func (r *Replica) adoptBallotLocked(b uint64) {
	if b > r.promised {
		r.promised = b
	}
	if b > r.ballot {
		r.ballot = b
		if r.leading {
			r.leading = false
			for n, t := range r.pendFail {
				t.Stop()
				delete(r.pendFail, n)
			}
			r.queue = nil
		}
		r.candBallot = 0
	}
}

// handleAck runs at the leader: count follower acks, commit on quorum.
func (r *Replica) handleAck(from wire.NodeID, m *wire.VSAccept) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.leading || m.Ballot != r.ballot || r.acc == nil || m.State.Index != r.acc.state.Index {
		return
	}
	for i, id := range r.ids {
		if id == from {
			r.accAcked = r.accAcked.Add(wire.NodeID(i))
		}
	}
	if r.accAcked.Count() >= r.quorum() {
		r.commitLocked()
	}
}

// commitLocked installs the accepted entry as committed state and announces
// it to replicas and every subscribed client, then starts the next command.
func (r *Replica) commitLocked() {
	e := r.acc
	r.acc = nil
	r.state = e.state
	r.applySideEffectsLocked(e.cmd)
	msg := &wire.VSCommit{
		Ballot: r.ballot, Cmd: e.cmd, State: e.state,
		BarrierDone: e.done, DoneEpoch: e.doneEpoch,
	}
	dsts := r.others()
	for _, s := range r.subs.Nodes() {
		dsts = append(dsts, s)
	}
	_ = r.tr.Multicast(dsts, msg)
	transport.Flush(r.tr)
	r.popQueueLocked()
}

// applySideEffectsLocked runs local bookkeeping for a committed command.
func (r *Replica) applySideEffectsLocked(cmd wire.VSCommand) {
	switch cmd.Op {
	case wire.VSJoin:
		r.renewals[cmd.Node].Store(time.Now().UnixNano())
	case wire.VSFail, wire.VSLeave:
		if t, ok := r.pendFail[cmd.Node]; ok {
			t.Stop()
			delete(r.pendFail, cmd.Node)
		}
	}
}

// handleCommit runs at followers: adopt the committed state (state transfer;
// the Index guard makes duplicates and reordering harmless).
func (r *Replica) handleCommit(m *wire.VSCommit) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.adoptBallotLocked(m.Ballot)
	r.lastContact.Store(time.Now().UnixNano())
	if m.State.Index > r.state.Index {
		r.state = m.State
		r.applySideEffectsLocked(m.Cmd)
		if r.acc != nil && r.acc.state.Index <= r.state.Index {
			r.acc = nil
		}
	}
}

// ---------------------------------------------------------------------------
// Leases and heartbeats.
// ---------------------------------------------------------------------------

func (r *Replica) handleLease(from wire.NodeID, m *wire.VSLeaseMsg) {
	if m.Heartbeat {
		r.mu.Lock()
		r.adoptBallotLocked(m.Ballot)
		if m.Ballot == r.ballot {
			r.lastContact.Store(time.Now().UnixNano())
		}
		r.mu.Unlock()
		return
	}
	// Renewal: one atomic store per renewed node, no state-machine lock —
	// renewals proceed in parallel (the "striped lease table").
	now := time.Now().UnixNano()
	for n := range m.Nodes.Each {
		r.renewals[n].Store(now)
	}
	r.mu.Lock()
	r.subs = r.subs.Add(from)
	r.mu.Unlock()
}

func (r *Replica) handleQuery(from wire.NodeID, m *wire.VSQuery) {
	if m.Resp {
		return
	}
	r.mu.Lock()
	r.subs = r.subs.Add(from)
	resp := &wire.VSQuery{Resp: true, Ballot: r.ballot, State: r.state}
	r.mu.Unlock()
	_ = r.tr.Send(from, resp)
	transport.Flush(r.tr)
}

// ---------------------------------------------------------------------------
// Heartbeat / takeover loop.
// ---------------------------------------------------------------------------

func (r *Replica) loop() {
	t := time.NewTicker(r.cfg.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-r.closed:
			return
		case <-t.C:
		}
		r.tick()
	}
}

func (r *Replica) tick() {
	r.mu.Lock()
	if r.leading {
		// Heartbeat and re-drive the in-flight entry (covers accepts lost
		// to a replica that was briefly unreachable).
		if len(r.ids) > 1 {
			hb := r.beats.Take()
			*hb = wire.VSLeaseMsg{Heartbeat: true, Ballot: r.ballot}
			r.multicast(hb)
			if r.acc != nil {
				r.multicast(&wire.VSAccept{
					Ballot: r.ballot, Phase: wire.VSPhaseAccept,
					Cmd: r.acc.cmd, State: r.acc.state,
				})
			}
		}
		if r.cfg.AutoFail {
			r.autoFailLocked()
		}
		r.mu.Unlock()
		return
	}
	// Backup: take over when the leader has been silent too long. The
	// wait is staggered by distance from the current leader so the
	// next-in-line usually wins without a ballot duel.
	silence := time.Since(time.Unix(0, r.lastContact.Load()))
	dist := (r.idx - r.leaderIdx(r.ballot) + len(r.ids)) % len(r.ids)
	if dist == 0 {
		dist = len(r.ids) // deposed leader: try last
	}
	wait := time.Duration(dist) * r.cfg.TakeoverAfter
	retrying := r.candBallot != 0 && time.Since(r.candSince) > 2*r.cfg.TakeoverAfter
	if silence < wait || (r.candBallot != 0 && !retrying) {
		r.mu.Unlock()
		return
	}
	b := r.ballot + 1
	if b <= r.promised {
		b = r.promised + 1
	}
	for r.leaderIdx(b) != r.idx {
		b++
	}
	r.promised = b
	r.candBallot = b
	r.candSince = time.Now()
	r.promises = wire.BitmapOf(wire.NodeID(r.idx))
	r.bestState = r.state
	r.bestAcc = r.acc
	if r.acc != nil {
		r.bestAccBlt = r.acc.ballot
	}
	if len(r.ids) == 1 {
		r.becomeLeaderLocked()
		r.mu.Unlock()
		return
	}
	r.multicast(&wire.VSAccept{Ballot: b, Phase: wire.VSPhasePrepare})
	r.mu.Unlock()
}

// autoFailLocked (Config.AutoFail) proposes VSFail for every live data node
// whose renewals have been silent for 2×Lease — the failure detector of a
// real multi-process deployment, where a SIGKILLed process stops renewing
// and nothing else reports it. A node this replica has never seen renew is
// seeded as renewed NOW (same conservatism as the propose path: waiting a
// full extra lease is always safe). The proposal goes through the normal
// queue, so the commit is still quorum-replicated and deduplicated.
func (r *Replica) autoFailLocked() {
	now := time.Now()
	for _, n := range r.state.Live.Nodes() {
		nanos := r.renewals[n].Load()
		if nanos == 0 {
			r.renewals[n].Store(now.UnixNano())
			continue
		}
		if now.Sub(time.Unix(0, nanos)) < 2*r.cfg.Lease {
			continue
		}
		cmd := wire.VSCommand{Op: wire.VSFail, Node: n, Epoch: r.state.JoinEpoch(n)}
		if _, dup := r.pendFail[n]; dup || r.inFlightLocked(cmd) {
			continue
		}
		// The lease is already more than one Lease stale, so the §3.1
		// wait is served; queue the failure directly.
		r.queue = append(r.queue, cmd)
	}
	r.popQueueLocked()
}

// handlePrepare promises the candidate's ballot and returns this replica's
// committed state plus any accepted-but-uncommitted entry.
func (r *Replica) handlePrepare(from wire.NodeID, m *wire.VSAccept) {
	r.mu.Lock()
	if m.Ballot < r.promised {
		r.mu.Unlock()
		return // already promised a higher ballot
	}
	r.promised = m.Ballot
	r.leading = false
	r.candBallot = 0
	r.lastContact.Store(time.Now().UnixNano()) // grace for the candidate
	resp := &wire.VSAccept{Ballot: m.Ballot, Phase: wire.VSPhasePromise, State: r.state}
	if r.acc != nil {
		resp.HasAcc = true
		resp.AccBallot = r.acc.ballot
		resp.AccCmd = r.acc.cmd
		resp.AccState = r.acc.state
	}
	r.mu.Unlock()
	_ = r.tr.Send(from, resp)
	transport.Flush(r.tr)
}

func (r *Replica) handlePromise(from wire.NodeID, m *wire.VSAccept) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.candBallot == 0 || m.Ballot != r.candBallot || r.leading {
		return
	}
	for i, id := range r.ids {
		if id == from {
			r.promises = r.promises.Add(wire.NodeID(i))
		}
	}
	if m.State.Index > r.bestState.Index {
		r.bestState = m.State
	}
	if m.HasAcc && (r.bestAcc == nil || m.AccBallot > r.bestAccBlt) {
		r.bestAcc = &entry{ballot: m.AccBallot, cmd: m.AccCmd, state: m.AccState}
		r.bestAccBlt = m.AccBallot
	}
	if r.promises.Count() >= r.quorum() {
		r.becomeLeaderLocked()
	}
}

// becomeLeaderLocked completes a takeover: adopt the highest committed state
// seen in the promise quorum, re-publish it (clients that missed the old
// leader's final pushes resynchronize), and re-drive any orphaned entry
// through the normal proposal path (commands are idempotent, so re-proposing
// against the adopted state is safe even if the entry actually committed).
func (r *Replica) becomeLeaderLocked() {
	r.ballot = r.candBallot
	r.candBallot = 0
	r.leading = true
	if r.bestState.Index > r.state.Index {
		r.state = r.bestState
	}
	if orphan := r.bestAcc; orphan != nil {
		r.bestAcc = nil
		if r.applicableLocked(orphan.cmd) && !r.inFlightLocked(orphan.cmd) {
			r.queue = append(r.queue, orphan.cmd)
		}
	}
	r.acc = nil
	msg := &wire.VSCommit{Ballot: r.ballot, Cmd: wire.VSCommand{Op: wire.VSNoop}, State: r.state}
	dsts := r.others()
	for _, s := range r.subs.Nodes() {
		dsts = append(dsts, s)
	}
	_ = r.tr.Multicast(dsts, msg)
	transport.Flush(r.tr)
	r.popQueueLocked()
}
