// Package core assembles a Zeus datastore node: the object store, the
// reliable ownership engine (§4), the reliable commit engine (§5), and the
// transactional memory API of §7 (tr_create / tr_r_create / tr_open_read /
// tr_open_write / tr_commit / tr_abort — here Begin / BeginRO / Get / Set /
// Commit / Abort).
//
// Transactions follow the three steps of §3.2:
//
//  1. Prepare & Execute — before accessing an object the worker verifies it
//     holds the needed ownership level, acquiring it via the ownership
//     protocol otherwise (blocking, the only blocking step). A read hands
//     out a view of the committed version (tr_open_read: versions are
//     replace-only, so the view never changes under the reader). An update
//     (tr_open_write) stages the caller's bytes as they are, not a copy:
//     they are the version the commit publishes, so the caller hands them
//     over and never writes them again — the mirror of the read's view.
//     Staged values stay private to the transaction until it commits
//     (opacity, §6.2).
//  2. Local Commit — contention across local workers is resolved with a
//     local version of the ownership protocol: per-object local ownership
//     taken by try-lock, conflicts abort and retry with back-off (§7).
//  3. Reliable Commit — the validated updates enter the worker's pipeline
//     and replicate in the background; the application never blocks (§5.2).
package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/commit"
	"zeus/internal/dbapi"
	"zeus/internal/directory"
	"zeus/internal/obs"
	"zeus/internal/ownership"
	"zeus/internal/storage"
	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// Config tunes a node. It is declared once: cluster.Options embeds it and
// zeusd maps its flags onto it. What belongs to one node instance — its
// transport, membership agent, storage and registry — is a NewNode argument.
type Config struct {
	// Degree is the replication degree: replicas per object including the
	// owner. 0 picks 3, the paper's 3-way replication.
	Degree int
	// Workers is the number of worker threads; each owns a commit pipeline.
	// 0 picks 8; more than MaxWorkers is refused.
	Workers int
	// OnOwnershipLatency, if set, observes the latency of every successful
	// ownership request (the metric of Figure 12).
	OnOwnershipLatency func(time.Duration)
	// TraceSample samples every Nth write transaction with a per-phase
	// obs.Trace (begin → inv → ack → val → applied). 0 disables tracing.
	// Requires a registry.
	TraceSample uint64
	// WatchdogAge arms the commit-engine debt watchdog: replication slots,
	// stored R-INVs or replay probes older than this threshold raise
	// structured incidents. 0 defers to the ZEUS_WATCHDOG_AGE environment
	// variable (a Go duration; unset leaves the watchdog off). When the
	// watchdog is armed without a registry, a private one is created so
	// incidents have somewhere to land — CI race jobs catch wedges without
	// every test opting into metrics.
	WatchdogAge time.Duration
}

// MaxWorkers is the most workers a node runs: a commit pipeline is named by
// its worker's one-byte wire.Worker, so worker 256 would share worker 0's.
const MaxWorkers = int(^wire.Worker(0)) + 1

// WithDefaults returns cfg with a non-positive Degree or Workers replaced by
// the default: 3-way replication, 8 workers.
func (cfg Config) WithDefaults() Config {
	if cfg.Degree <= 0 {
		cfg.Degree = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	return cfg
}

// Stats aggregates transaction counters for one node.
type Stats struct {
	Commits   uint64
	Aborts    uint64
	ROCommits uint64
	ROAborts  uint64
}

// Node is one Zeus datastore server.
type Node struct {
	id     wire.NodeID
	cfg    Config
	st     *store.Store
	tr     transport.Transport
	router *transport.Router
	agent  *viewsvc.Agent
	own    *ownership.Engine
	cmt    *commit.Engine
	dirsvc *directory.Service

	leases []lease // one per worker

	// trimQ feeds the bounded replica-trim pool (see maybeTrim): dropping a
	// reader is best-effort background work, so a fixed pool with a bounded
	// queue replaces the old unbounded one-goroutine-per-object spawn —
	// an ownership churn storm used to fork one goroutine per object.
	trimQ     chan trimReq
	closedCh  chan struct{}
	closeOnce sync.Once
	closed    atomic.Bool // set by Close: a Begin answers closedTx

	// Durability (nil without storage): the group-commit WAL front
	// end shared by the commit and ownership engines, and the recovery
	// census taken before the first message was handled.
	log         *storage.Log
	stg         storage.Storage
	recovered   int
	incarnation uint64

	// Reclaim bookkeeping (see sync.go): the recovered objects this node
	// owned that it has not taken back yet, each with whether its recovered
	// value had completed a commit.
	reclaimMu      sync.Mutex
	reclaimPending map[wire.ObjectID]bool

	stCommits   atomic.Uint64
	stAborts    atomic.Uint64
	stROCommits atomic.Uint64
	stROAborts  atomic.Uint64

	// Observability (nil without a registry or a watchdog age): the node's
	// registry, the write-transaction trace sampler, and the sampling
	// sequence. Set once in NewNode; read unsynchronized.
	obs     *obs.Registry
	sampler *obs.Sampler
	txSeq   atomic.Uint64
}

// NewNode builds a node on the given transport and membership agent; there
// is nothing left to wire afterwards. The node installs its message handler
// on the transport; extra handlers (zeusd's view-service client, which shares
// the node's socket) can be registered on Router() before traffic flows.
//
// A non-nil stg makes the node durable: followers persist R-INVs before
// acking (the cluster-level durability choke point), committed values and
// ownership grants append to the same WAL, and a background loop snapshots
// the store to bound replay. NewNode replays whatever stg recovers BEFORE
// traffic flows — the objects it owned come back demoted (NonReplica,
// TInvalid) and regain their level and validity through Reclaim, never by
// trusting possibly stale local state. Nil keeps the node memory-only.
//
// A non-nil reg is handed to every engine's constructor (metrics, traces,
// incidents — see internal/obs). Nil keeps every record site behind its nil
// check, the hot paths untouched; the node still answers wire.ObsPull (the
// reply just carries less).
func NewNode(id wire.NodeID, tr transport.Transport, agent *viewsvc.Agent, stg storage.Storage, reg *obs.Registry, cfg Config) *Node {
	cfg = cfg.WithDefaults()
	if cfg.Workers > MaxWorkers {
		panic(fmt.Sprintf("core: %d workers, at most %d: a commit pipeline is named by a one-byte wire.Worker", cfg.Workers, MaxWorkers))
	}
	// Watchdog arming via the environment (CI race jobs set a low threshold
	// for every test binary without code changes). Resolved before the Node
	// copies cfg so there is exactly one Config to read.
	if cfg.WatchdogAge == 0 {
		if v := os.Getenv("ZEUS_WATCHDOG_AGE"); v != "" {
			if d, err := time.ParseDuration(v); err == nil && d > 0 {
				cfg.WatchdogAge = d
			}
		}
	}
	if reg == nil && cfg.WatchdogAge > 0 {
		reg = obs.NewRegistry()
	}
	st := store.New()
	// Durable recovery happens FIRST, before any engine or handler exists:
	// the store is rebuilt from the snapshot + WAL replay while no message
	// can race the install. See installRecovered for the demotion rules.
	var recovered int
	var incarnation uint64
	pending := make(map[wire.ObjectID]bool)
	if stg != nil {
		rec, err := stg.Recover()
		if err != nil {
			// A node must not serve with a half-recovered store; the
			// operator decides between repair and a fresh data dir.
			panic(fmt.Sprintf("core: storage recovery failed: %v", err))
		}
		recovered = installRecovered(id, st, rec, pending)
		incarnation = rec.Incarnation
	}
	// Sharded ownership directory (§6.2): ownership REQs resolve object →
	// shard → drivers through the placement map the view service replicates.
	// The service registers its view-change hook here, BEFORE the node's, so
	// a placement diff (and the shard metadata pulls it triggers) precedes
	// the ownership pause / recovery machinery of the same view change.
	n := &Node{id: id, cfg: cfg, st: st, tr: tr, agent: agent,
		dirsvc: directory.NewService(id, st, tr, agent),
		trimQ:  make(chan trimReq, trimQueueDepth), closedCh: make(chan struct{}),
		stg: stg, recovered: recovered, incarnation: incarnation,
		reclaimPending: pending, leases: make([]lease, cfg.Workers)}
	n.router = transport.NewRouter()
	if stg != nil {
		n.log = storage.NewLog(stg, reg)
	}
	n.cmt = commit.New(id, st, tr, agent, commit.Config{
		Log: n.log,
		// The durable incarnation replaces the view epoch as PipeID.Incar:
		// a fast rejoin that beats the failure detector never bumps the
		// epoch, but the counter advances on every Recover. Zero without
		// storage.
		Incarnation: incarnation,
		Obs:         reg,
	})
	n.own = ownership.New(id, st, tr, agent, ownership.Config{
		Directory: n.dirsvc,
		// The owner refuses ownership transfers while the object is involved
		// in a pending reliable commit (§4.1). Executing local transactions
		// (local ownership held) are detected by the ownership engine itself
		// via Object.LocalOwnerLocked — this probe does not lock the object.
		HasPendingCommit: n.cmt.HasPending,
		Log:              n.log,
		Obs:              reg,
		OnLatency:        cfg.OnOwnershipLatency,
	})
	if n.log != nil {
		go n.snapshotLoop()
	}
	// Observability: the node-level scrape callbacks and the trace sampler.
	// Every record site is behind a nil check, so a nil registry costs the
	// seed paths nothing.
	if reg != nil {
		n.obs = reg
		n.sampler = obs.NewSampler(cfg.TraceSample)
		n.registerNodeMetrics(reg)
		// An endpoint with counters of its own (reliable frames, TCP socket
		// writes) scrapes them into the node's registry; the hub's are
		// fabric-wide only.
		if counted, ok := tr.(interface{ RegisterObs(*obs.Registry) }); ok {
			counted.RegisterObs(reg)
		}
		if cfg.WatchdogAge > 0 {
			n.cmt.StartWatchdog(cfg.WatchdogAge)
		}
	}
	n.router.Handle(wire.KindObsPull, n.handleObsPull)
	n.own.Register(n.router)
	n.cmt.Register(n.router)
	n.dirsvc.Register(n.router)
	// Sharded delivery (§5.2/§7): keyed protocol traffic fans out to
	// per-pipe / per-object handler goroutines so independent pipelines
	// apply in parallel. min(Workers, GOMAXPROCS) of them: extra shards
	// on a single-core host only add queue hops, and one keeps inline
	// dispatch.
	n.router.EnableSharding(min(cfg.Workers, runtime.GOMAXPROCS(0)))
	tr.SetHandler(n.router.Dispatch)
	tr.SetTickHandler(n.router.Tick)
	for i := 0; i < trimWorkers; i++ {
		go n.trimLoop()
	}

	agent.OnChange(func(old, next wire.View, removed wire.Bitmap) {
		// The ownership and commit machinery reacts to removals only.
		if removed.Count() == 0 {
			return
		}
		n.own.Pause()
		n.own.PruneDead(next.Live)
		n.cmt.OnViewChange(next, removed) // reports recovery-done when drained
	})
	agent.OnRecovered(func(wire.Epoch) { n.own.Resume() })
	go n.renewLoop()
	return n
}

// Obs returns the node's observability registry (nil unless NewNode was given
// one or a watchdog age armed the watchdog).
func (n *Node) Obs() *obs.Registry { return n.obs }

// registerNodeMetrics exposes the node-level transaction counters through the
// registry. Pure pull-scrape over the existing
// engine atomics — the callbacks run at render time only, never on a hot
// path, and the atomics stay the single source of truth (no double counting
// against Stats()).
func (n *Node) registerNodeMetrics(r *obs.Registry) {
	r.CounterFunc("core_commits_total", n.stCommits.Load)
	r.CounterFunc("core_aborts_total", n.stAborts.Load)
	r.CounterFunc("core_ro_commits_total", n.stROCommits.Load)
	r.CounterFunc("core_ro_aborts_total", n.stROAborts.Load)
}

// handleObsPull answers a remote metrics pull (zeusctl metrics / status):
// the cheap header — epoch, commit count, incident count — always; the full text rendering of the registry
// only when asked (Full), since it allocates.
func (n *Node) handleObsPull(from wire.NodeID, m wire.Msg) {
	pull := m.(*wire.ObsPull)
	st := &wire.ObsState{
		From:    n.id,
		Epoch:   n.agent.View().Epoch,
		Commits: n.stCommits.Load(),
	}
	if r := n.obs; r != nil {
		st.Incidents = r.Incidents.Total()
		if pull.Full {
			var buf bytes.Buffer
			_ = r.WriteText(&buf)
			st.Metrics = buf.Bytes()
		}
	}
	_ = n.tr.Send(from, st)
	transport.Flush(n.tr)
}

// maybeTrace attaches a per-phase trace to every sampler-selected write
// transaction. One atomic add and a modulo when sampling is on; one nil
// check when it is off. Commit hands the trace to the commit engine, Abort
// just drops it.
func (n *Node) maybeTrace(tx *Tx) {
	s := n.sampler
	if s == nil || tx.finished { // busyTx is nobody's to trace
		return
	}
	if id := n.txSeq.Add(1); s.Sample(id) {
		tx.tr = obs.NewTrace(id)
		tx.tr.Event("begin")
	}
}

// renewLoop keeps this node's membership lease fresh (§3.1: live nodes renew
// continuously, so that a failure declaration waits out a full lease): three
// renewals per lease, no more often than every millisecond. Renewal state is
// striped per node all the way down — an atomic slot and a throttled
// multicast at the membership client — so the loops of co-located nodes never
// contend on a shared mutex.
func (n *Node) renewLoop() {
	t := time.NewTicker(max(n.agent.Lease()/3, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-n.closedCh:
			return
		case <-t.C:
			n.agent.Renew()
		}
	}
}

// ID returns the node id.
func (n *Node) ID() wire.NodeID { return n.id }

// Store exposes the object store (tests and tooling).
func (n *Node) Store() *store.Store { return n.st }

// Router exposes the message router for co-located services.
func (n *Node) Router() *transport.Router { return n.router }

// OwnershipEngine exposes the ownership engine (experiments measure it).
func (n *Node) OwnershipEngine() *ownership.Engine { return n.own }

// DirectoryService exposes the sharded-directory service.
func (n *Node) DirectoryService() *directory.Service { return n.dirsvc }

// CommitEngine exposes the reliable-commit engine.
func (n *Node) CommitEngine() *commit.Engine { return n.cmt }

// Agent returns the membership agent.
func (n *Node) Agent() *viewsvc.Agent { return n.agent }

// Stats returns this node's transaction counters.
func (n *Node) Stats() Stats {
	return Stats{
		Commits:   n.stCommits.Load(),
		Aborts:    n.stAborts.Load(),
		ROCommits: n.stROCommits.Load(),
		ROAborts:  n.stROAborts.Load(),
	}
}

// Close shuts down the node's engines and its log. The transport is not the
// node's to close: whoever made it does (a zeusd process its socket, a cluster
// its fabric), and a restart builds the next incarnation on the same endpoint.
func (n *Node) Close() {
	n.closed.Store(true)
	n.closeOnce.Do(func() { close(n.closedCh) })
	n.own.Close()
	n.cmt.Close()
	n.router.CloseShards()
	// The engines are quiesced: no new appends can be staged, so closing
	// the log drains the final group-commit batch before the driver goes.
	if n.log != nil {
		n.log.Close()
	}
	if n.stg != nil {
		_ = n.stg.Close()
	}
}

// ---------------------------------------------------------------------------
// Object lifecycle (malloc / free, §7).
// ---------------------------------------------------------------------------

// DefaultReaders is the one placement rule for a new object's readers: the
// degree-1 nodes of live that follow owner in id order, wrapping around (from
// the lowest live id when owner is not live). Every live node but the owner
// when degree exceeds the live count, none at degree 1. It allocates nothing:
// a cluster's bulk seeding calls it once an object.
func DefaultReaders(live wire.Bitmap, owner wire.NodeID, degree int) wire.Bitmap {
	after := live
	if live.Contains(owner) {
		after = live &^ (wire.Bitmap(1)<<(owner+1) - 1)
	}
	var readers wire.Bitmap
	for _, part := range [2]wire.Bitmap{after, live &^ after} {
		for cand := range part.Remove(owner).Each {
			if readers.Count() >= degree-1 {
				return readers
			}
			readers = readers.Add(cand)
		}
	}
	return readers
}

// CreateObject registers obj with this node as owner and the live view's
// DefaultReaders, then reliably replicates the initial value.
func (n *Node) CreateObject(obj wire.ObjectID, data []byte) error {
	return n.CreateObjectWithReaders(obj, data, DefaultReaders(n.agent.View().Live, n.id, n.cfg.Degree))
}

// CreateObjectWithReaders is CreateObject with an explicit reader set.
func (n *Node) CreateObjectWithReaders(obj wire.ObjectID, data []byte, readers wire.Bitmap) error {
	if size := wire.UpdateSize(len(data)); size > wire.MaxBlob {
		return tooLarge(size)
	}
	if err := n.own.Create(obj, readers); err != nil {
		return err
	}
	o, _ := n.st.GetOrCreate(obj)
	o.Mu.Lock()
	ver := o.StageLocked(append([]byte(nil), data...))
	o.PendingCommits.Add(1)
	followers := o.ReplicasLocked().Readers
	o.Mu.Unlock()
	n.cmt.Commit(wire.Worker(0), []wire.Update{{Obj: obj, Version: ver, Data: append([]byte(nil), data...)}}, followers, nil)
	return nil
}

// DeleteObject unregisters obj deployment-wide (free).
func (n *Node) DeleteObject(obj wire.ObjectID) error { return n.own.Delete(obj) }

// ---------------------------------------------------------------------------
// Transactions.
// ---------------------------------------------------------------------------

// Tx is one transaction (see package comment for the lifecycle).
//
// All per-object bookkeeping — what was read at which version, the private
// copies of what was written, which objects the worker holds local ownership
// of — is one access set: a list of access entries, one per object touched,
// in first-touch order. The first inlineAccesses entries live inside the Tx,
// so a Smallbank or TATP transaction (≤ 3 objects) costs exactly the Tx's
// own allocation; a larger one moves the set to a heap slice and, from then
// on, finds entries through an id index instead of scanning.
type Tx struct {
	n        *Node
	worker   int
	leased   bool // holds the worker's lease until Commit or Abort
	ro       bool
	finished bool // Commit or Abort ran: Get, Set and Commit refuse

	// The access set: inline[:nacc] until it outgrows the array, then spill
	// (which holds every entry, the first inlineAccesses included) with
	// index mapping an id to its position. Use accesses/find/add.
	nacc    int
	nwrites int // entries with accWritten
	wsize   int // their wire.UpdateSize, summed: the R-INV they travel in
	inline  [inlineAccesses]access
	spill   []access
	index   map[wire.ObjectID]int32

	// slot is the reliable commit a write transaction ended in (Durable).
	slot *commit.Slot
	// tr is the sampled transaction's trace (nil for the unsampled majority;
	// obs.Trace methods are nil-receiver-safe). Commit passes it on to the
	// commit engine, which leaks only what the Tx points at: a Tx its caller
	// keeps local still lives on the stack (BenchmarkReadOnlyTx's 1 alloc/op
	// pins that).
	tr *obs.Trace
}

// inlineAccesses is how many objects a transaction touches before its access
// set leaves the Tx for the heap.
const inlineAccesses = 4

// access is one object's entry in a transaction's access set.
type access struct {
	id  wire.ObjectID
	obj *store.Object // resolved once, at first touch
	// ver is the t_version observed at first read (accRead).
	ver uint64
	// data is what Get returns from the second access on: the slice Set
	// adopted (accWritten; it becomes the object's payload at commit), else
	// the payload observed at first read, aliased, never written through.
	data  []byte
	flags accessFlags
}

type accessFlags uint8

const (
	accRead    accessFlags = 1 << iota // ver/data hold a read to validate
	accWritten                         // data is the staged value
	accHeld                            // this worker holds local ownership
)

// accesses returns the access set in first-touch order (sorted by id once a
// write transaction's Commit got that far).
func (tx *Tx) accesses() []access {
	if tx.spill != nil {
		return tx.spill
	}
	return tx.inline[:tx.nacc]
}

// find returns obj's entry, nil if the transaction has not touched it. The
// pointer is good until the next add.
func (tx *Tx) find(id wire.ObjectID) *access {
	if tx.index != nil {
		if i, ok := tx.index[id]; ok {
			return &tx.spill[i]
		}
		return nil
	}
	for i := 0; i < tx.nacc; i++ {
		if tx.inline[i].id == id {
			return &tx.inline[i]
		}
	}
	return nil
}

// add appends an entry for an object find did not know and returns it.
func (tx *Tx) add(a access) *access {
	if tx.spill == nil {
		if tx.nacc < inlineAccesses {
			tx.inline[tx.nacc] = a
			tx.nacc++
			return &tx.inline[tx.nacc-1]
		}
		tx.spill = append(make([]access, 0, 4*inlineAccesses), tx.inline[:]...)
		tx.index = make(map[wire.ObjectID]int32, 4*inlineAccesses)
		for i := range tx.spill {
			tx.index[tx.spill[i].id] = int32(i)
		}
	}
	tx.index[a.id] = int32(len(tx.spill))
	tx.spill = append(tx.spill, a)
	return &tx.spill[len(tx.spill)-1]
}

// errFinished is what Get, Set and Commit return after Commit or Abort: a
// finished transaction released its local ownership, and an access would
// re-take grants nothing ever releases.
var errFinished = errors.New("core: transaction already finished")

// FinishedTx is a transaction that is over and was nobody's: every method
// refuses and none writes it. A wrapper points a handle it has severed here
// (zeus.Node.Update), so the handle answers as any finished Tx does.
var FinishedTx = &Tx{finished: true}

// busyTx is what a Begin on a busy worker returns: finished and nobody's, but
// its Get, Set and Commit answer dbapi.ErrConflict, so a retry loop waits the
// worker out. Begin does not block: a leaked transaction would hang it.
var busyTx = &Tx{finished: true}

// ErrClosed is what a transaction begun on a closed node answers. A closed
// node serves nothing again, so no retry loop retries it.
var ErrClosed = errors.New("core: node closed")

// closedTx is what a Begin on a closed node returns: finished and nobody's,
// its Get, Set and Commit answer ErrClosed.
var closedTx = &Tx{finished: true}

func (tx *Tx) refusal() error {
	switch tx {
	case busyTx:
		return dbapi.ErrConflict
	case closedTx:
		return ErrClosed
	}
	return errFinished
}

// lease is a worker's right to run its one transaction at a time (§5.2, §7).
// A Begin takes it by adding one to an even state, Commit or Abort gives it
// back by adding one more (Tx.end): one atomic write each, and state only
// grows, so an unchanged state says the lease was held throughout. tx is the
// record DB's transactions on the worker run in.
type lease struct {
	state atomic.Uint64 // odd while held
	tx    Tx
}

// take takes the lease if it is free and reports whether it did.
func (l *lease) take() bool {
	s := l.state.Load()
	return s&1 == 0 && l.state.CompareAndSwap(s, s+1)
}

// Begin starts a write transaction on an idle worker, scanning from a random
// one to spread callers over the pipelines. It returns busyTx only when every
// worker ran a transaction at one instant during the call: a pass over the
// workers that finds none idle is repeated until two passes in a row see each
// worker held by the same transaction. States only grow, so two passes whose
// states sum alike saw every one unchanged. It never waits for a worker: a
// pass repeats only after another transaction began or ended.
func (n *Node) Begin() *Tx {
	w0 := rand.IntN(len(n.leases))
	var last uint64
	for pass := 0; ; pass++ {
		var sum uint64
		for i := range n.leases {
			w := (w0 + i) % len(n.leases)
			if tx := n.BeginOn(w); tx != busyTx {
				n.maybeTrace(tx)
				return tx
			}
			sum += n.leases[w].state.Load()
		}
		if pass > 0 && sum == last {
			return busyTx
		}
		last = sum
	}
}

// BeginOn starts a write transaction on a specific worker thread, or returns
// busyTx while the worker runs one. Worker ids map 1:1 onto reliable-commit
// pipelines (§5.2, §7). The Tx is the only allocation, and none at all when
// the caller keeps it on its stack (BeginOn inlines and the access set is part
// of the struct).
func (n *Node) BeginOn(worker int) *Tx {
	if n.closed.Load() {
		return closedTx
	}
	w := worker % n.cfg.Workers
	if !n.leases[w].take() {
		return busyTx
	}
	return &Tx{n: n, worker: w, leased: true}
}

// BeginRO starts a read-only transaction: local, strictly serializable on
// any replica, no network traffic (§5.3). It takes no worker.
//
// BeginRO must stay inlinable into its callers: a caller that does not let
// the Tx escape — BeginRO, Get, Commit in one function — then runs the whole
// read-only transaction, access set included, on its stack.
func (n *Node) BeginRO() *Tx {
	return &Tx{n: n, ro: true}
}

// Get returns the value of obj as seen by the transaction (tr_open_read). The
// bytes are a view, not a copy: the committed version, or the very slice this
// transaction staged with Set. The engine never writes them again — a
// later commit, or a later Set in this transaction, installs a new slice —
// so they stay valid for as long as the caller keeps them; the caller must
// not write them either (copy before modifying). A committed empty value
// reads as nil.
func (tx *Tx) Get(obj uint64) ([]byte, error) {
	if tx.finished {
		return nil, tx.refusal()
	}
	id := wire.ObjectID(obj)
	// Read-your-writes and repeat-read stability: a touched object answers
	// from its entry (every entry was read or written).
	if a := tx.find(id); a != nil {
		return a.data, nil
	}
	o, err := tx.ensureReadable(id)
	if err != nil {
		return nil, err
	}
	// The entry and the caller alias the object's payload instead of copying
	// it under the lock (store.Object.SnapshotRef; the payload is
	// replace-only) — a later commit installs a new slice and never mutates
	// this one, so both keep exactly the bytes read at `ver`, which is what
	// opacity needs anyway.
	st, ver, lvl, data := o.SnapshotRef()

	// Invalidated objects cannot be read (§5.3); the owner may read its
	// own locally committed (Write-state) values thanks to pipelining. Nor
	// can a record this node no longer replicates: a grant that drops the
	// replica after ensureReadable leaves it ⟨0, Valid⟩ with no payload, and
	// from the INV that drops it until then it is leaving (store.TLeaving),
	// which is not Valid either — here, and in validateReads.
	switch {
	case st == store.TValid && lvl != wire.NonReplica:
	case st == store.TWrite && lvl == wire.Owner && !tx.ro:
	default:
		tx.release()
		return nil, dbapi.ErrConflict
	}
	// Opacity (§6.2): every prior read must still be valid, so the
	// transaction always observes a consistent snapshot, even if it will
	// abort later.
	if !tx.validateReads() {
		tx.release()
		return nil, dbapi.ErrConflict
	}
	tx.add(access{id: id, obj: o, ver: ver, data: data, flags: accRead})
	return data, nil
}

// Set stages a full-object write (tr_open_write + update). It adopts val
// instead of copying it: the bytes become the version the commit publishes —
// shared with the WAL and, on the hub, the followers' replicas — so the caller must not write them after Set (build a fresh slice
// per write). The staged slice's capacity is clipped to its length, so an
// append to the version — by anyone who Gets it — reallocates instead of
// writing past it. A second Set of the same object replaces the staged slice;
// an empty val is staged as nil. A transaction's writes travel in one R-INV,
// so a Set that would take them past wire.MaxBlob (counted by
// wire.UpdateSize) is refused with wire.ErrTooLarge and stages nothing.
func (tx *Tx) Set(obj uint64, val []byte) error {
	if tx.ro {
		return fmt.Errorf("core: Set on read-only transaction")
	}
	if tx.finished {
		return tx.refusal()
	}
	id := wire.ObjectID(obj)
	a := tx.find(id)
	wsize := tx.wsize + wire.UpdateSize(len(val))
	if a != nil && a.flags&accWritten != 0 {
		wsize -= wire.UpdateSize(len(a.data))
	}
	if wsize > wire.MaxBlob {
		return tooLarge(wsize)
	}
	if a == nil || a.flags&accHeld == 0 {
		o, err := tx.ensureWritable(id)
		if err != nil {
			return err
		}
		if a == nil {
			a = tx.add(access{id: id, obj: o})
		} else if a.obj != o {
			// The object was deleted and re-created since it was read: the
			// entry's orphan is not what the grant was taken on.
			o.ReleaseLocal(int16(tx.worker))
			tx.release()
			return dbapi.ErrConflict
		}
		a.flags |= accHeld
		// If the object was read before being locked, it must not have
		// changed in between (snapshot consistency).
		if a.flags&accRead != 0 {
			o.Mu.Lock()
			cur := o.TVersion()
			o.Mu.Unlock()
			if cur != a.ver {
				tx.release()
				return dbapi.ErrConflict
			}
		}
	}
	tx.wsize = wsize
	if a.flags&accWritten == 0 {
		a.flags |= accWritten
		tx.nwrites++
	}
	if len(val) == 0 {
		val = nil // WAL records tell "no data" by a nil Data (Recovered.ApplyRecord)
	}
	a.data = slices.Clip(val)
	return nil
}

// tooLarge refuses writes that would not fit one R-INV (wire.MaxBlob).
func tooLarge(size int) error {
	return fmt.Errorf("core: writes of %d bytes, over the %d one R-INV carries: %w", size, wire.MaxBlob, wire.ErrTooLarge)
}

// ensureReadable secures reader (or owner) level for the object and returns
// it.
func (tx *Tx) ensureReadable(id wire.ObjectID) (*store.Object, error) {
	n := tx.n
	if o, ok := n.st.Get(id); ok {
		o.Mu.Lock()
		readable := o.HoldsLocked(wire.Reader)
		o.Mu.Unlock()
		if readable {
			return o, nil
		}
	}
	if err := n.own.AcquireRead(id); err != nil {
		return nil, ownershipErr(err)
	}
	o, ok := n.st.Get(id)
	if !ok {
		return nil, dbapi.ErrNoReplica
	}
	return o, nil
}

// ensureWritable secures exclusive write access: owner level via the
// ownership protocol (remote) plus local ownership via try-lock (§7). It
// returns the object with the local grant taken; the caller records it in
// the access set (accHeld) so release gives it back.
func (tx *Tx) ensureWritable(id wire.ObjectID) (*store.Object, error) {
	n := tx.n
	o, _ := n.st.GetOrCreate(id)
	for attempt := 0; attempt < 3; attempt++ {
		o.Mu.Lock()
		if o.HoldsLocked(wire.Owner) {
			// GrantLocalLocked refuses both local contention and the
			// transfer-fairness yield (§6.2): after a remote requester
			// was NACKed for pending commits, new local write grants
			// hold off so the pipeline drains and the transfer wins.
			granted := o.GrantLocalLocked(int16(tx.worker))
			o.Mu.Unlock()
			if !granted {
				tx.release()
				return nil, dbapi.ErrConflict // abort + retry
			}
			return o, nil
		}
		o.Mu.Unlock()
		if err := n.own.AcquireOwnership(id); err != nil {
			tx.release()
			return nil, ownershipErr(err)
		}
		n.maybeTrim(id)
	}
	tx.release()
	return nil, dbapi.ErrConflict
}

// ownershipErr maps ownership failures to the retryable conflict error,
// keeping permanent errors (unknown object) intact.
func ownershipErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ownership.ErrUnknownObject):
		return err
	default:
		return dbapi.ErrConflict
	}
}

// trimWorkers / trimQueueDepth bound the background replica-trim pool: a
// fixed number of goroutines drain a bounded queue, so a burst of ownership
// acquisitions (or a view change re-homing thousands of objects) can no
// longer spawn one DropReader goroutine per object. Overflow is dropped —
// trimming is best-effort and retried on the object's next acquisition.
const (
	trimWorkers    = 2
	trimQueueDepth = 1024
)

type trimReq struct {
	obj  wire.ObjectID
	drop wire.NodeID
}

func (n *Node) trimLoop() {
	for {
		select {
		case r := <-n.trimQ:
			_ = n.own.DropReader(r.obj, r.drop)
		case <-n.closedCh:
			return
		}
	}
}

// maybeTrim restores the replication degree after ownership grew the replica
// set, out of the critical path (§6.2), via the bounded trim pool.
func (n *Node) maybeTrim(id wire.ObjectID) {
	o, ok := n.st.Get(id)
	if !ok {
		return
	}
	o.Mu.Lock()
	var drop wire.NodeID = wire.NoNode
	if reps := o.ReplicasLocked(); o.LevelLocked() == wire.Owner && reps.All().Count() > n.cfg.Degree {
		// Drop the lowest-id reader; deterministic and simple.
		if rd := reps.Readers.Nodes(); len(rd) > 0 {
			drop = rd[0]
		}
	}
	o.Mu.Unlock()
	if drop != wire.NoNode {
		select {
		case n.trimQ <- trimReq{obj: id, drop: drop}:
		default: // pool saturated: skip, the next acquisition re-trims
		}
	}
}

// validateReads re-checks every read version (caller holds no locks) on the
// object resolved at first touch — an object deleted since fails, because
// store.Delete leaves it invalid behind the pointer.
// Read-only transactions validate lock-free: a single atomic load of the
// packed ⟨t_version, t_state⟩ word (store.Object.TSnapshot) replaces the
// object lock — the seqlock-style check of the ROADMAP's "reader-local RO
// snapshots" item, exact because RO only ever accepts TValid. Write
// transactions still lock briefly: their validation additionally reads the
// access level (owner-visible TWrite values).
func (tx *Tx) validateReads() bool {
	acc := tx.accesses()
	for i := range acc {
		a := &acc[i]
		if a.flags&accRead == 0 || a.flags&accWritten != 0 {
			continue // never read, or protected by local ownership
		}
		o := a.obj
		if tx.ro {
			v, st := o.TSnapshot()
			if v != a.ver || st != store.TValid {
				return false
			}
			continue
		}
		o.Mu.Lock()
		ver, st := o.TSnapshot()
		okv := ver == a.ver && (st == store.TValid ||
			(st == store.TWrite && o.LevelLocked() == wire.Owner))
		o.Mu.Unlock()
		if !okv {
			return false
		}
	}
	return true
}

// Commit finishes the transaction: read-only transactions verify their
// snapshot (§5.3); write transactions perform the local commit and hand the
// updates to the reliable-commit pipeline without blocking (§5.2).
func (tx *Tx) Commit() error {
	_, err := tx.commit()
	return err
}

// CommitDurable is Commit that returns once the write is on every live
// follower: nil after the reliable commit validated, commit.ErrClosed if the
// node closed first. Only the caller waits: the worker's lease is given back
// at the local commit, as Commit gives it back, so the worker's next
// transaction pipelines behind this one (§5.2). The slot is taken before
// that, because the worker's next Begin overwrites its Tx.
func (tx *Tx) CommitDurable() error {
	slot, err := tx.commit()
	if err != nil || slot == nil {
		return err
	}
	return slot.Wait()
}

// commit is Commit, returning the reliable commit a write ended in (nil if
// the transaction wrote nothing or did not commit).
func (tx *Tx) commit() (*commit.Slot, error) {
	if tx.finished {
		return nil, tx.refusal()
	}
	tx.finished = true
	defer tx.end()
	n := tx.n
	if tx.ro || tx.nwrites == 0 {
		ok := tx.validateReads()
		tx.release()
		if !ok {
			if tx.ro {
				n.stROAborts.Add(1)
			} else {
				n.stAborts.Add(1)
			}
			return nil, dbapi.ErrConflict
		}
		if tx.ro {
			n.stROCommits.Add(1)
		} else {
			n.stCommits.Add(1)
		}
		return nil, nil
	}

	// Local commit: verify ownership of the write set (still held), then
	// validate the read snapshot. The set is sorted by id in place first, so
	// every walk below — and with it the Updates of the R-INV — is in
	// ascending id order. (The sort strands tx.index; the transaction is
	// finished, nothing looks an entry up again.)
	acc := tx.accesses()
	if tx.nwrites > 1 {
		slices.SortFunc(acc, func(a, b access) int { return cmp.Compare(a.id, b.id) })
	}
	for i := range acc {
		a := &acc[i]
		if a.flags&accWritten == 0 {
			continue
		}
		ok := a.flags&accHeld != 0 // an earlier conflict released the grants
		if ok {
			o := a.obj
			o.Mu.Lock()
			ok = o.HoldsLocked(wire.Owner) && o.LocalOwnerLocked() == int16(tx.worker)
			o.Mu.Unlock()
		}
		if !ok {
			tx.release()
			n.stAborts.Add(1)
			return nil, dbapi.ErrConflict
		}
	}
	if !tx.validateReads() {
		tx.release()
		n.stAborts.Add(1)
		return nil, dbapi.ErrConflict
	}

	// Apply: install private copies, bump versions, mark Write state. The
	// engine copies the set into its slot, so up to inlineAccesses updates
	// are built here on the stack.
	var buf [inlineAccesses]wire.Update
	updates := buf[:0]
	if tx.nwrites > len(buf) {
		updates = make([]wire.Update, 0, tx.nwrites)
	}
	var followers wire.Bitmap
	for i := range acc {
		a := &acc[i]
		if a.flags&accWritten == 0 {
			continue
		}
		o := a.obj
		o.Mu.Lock()
		ver := o.StageLocked(a.data)
		o.PendingCommits.Add(1)
		updates = append(updates, wire.Update{Obj: a.id, Version: ver, Data: a.data})
		followers = followers.Union(o.ReplicasLocked().Readers)
		o.Mu.Unlock()
	}
	tx.release()

	// Reliable commit: pipelined, never blocks the worker (§5.2).
	tx.slot = n.cmt.Commit(wire.Worker(tx.worker), updates, followers, tx.tr)
	n.stCommits.Add(1)
	return tx.slot, nil
}

// Abort abandons the transaction and releases local ownership (tr_abort).
func (tx *Tx) Abort() {
	if tx.finished {
		return
	}
	tx.finished = true
	tx.release()
	if tx.ro {
		tx.n.stROAborts.Add(1)
	} else {
		tx.n.stAborts.Add(1)
	}
	tx.end()
}

// end gives the worker's lease back, after the grants are released and the
// commit slot is registered: the pipeline order is the order in which the
// worker's commits were staged. The worker's own Tx (DB's) is zeroed first
// but for its slot (see Durable): no object or access set stays reachable.
func (tx *Tx) end() {
	if !tx.leased {
		return
	}
	l := &tx.n.leases[tx.worker]
	if tx == &l.tx {
		*tx = Tx{finished: true, slot: tx.slot}
	}
	l.state.Add(1)
}

// Durable returns a channel closed once the transaction's reliable commit
// validated on all followers (nil if the transaction wrote nothing): until
// then a read on another node may still see the previous version. The channel
// is made on the first call (one shared, already closed channel if the commit
// validated before that); a caller that only blocks commits with
// CommitDurable instead, which waits without one. A DB transaction keeps its
// slot, payload included, until the worker's next Begin.
func (tx *Tx) Durable() <-chan struct{} {
	if tx.slot == nil {
		return nil
	}
	return tx.slot.Done()
}

// release gives back every local write grant the transaction holds.
func (tx *Tx) release() {
	acc := tx.accesses()
	for i := range acc {
		if a := &acc[i]; a.flags&accHeld != 0 {
			a.obj.ReleaseLocal(int16(tx.worker))
			a.flags &^= accHeld
		}
	}
}

// ---------------------------------------------------------------------------
// dbapi adapters.
// ---------------------------------------------------------------------------

type dbAdapter struct{ n *Node }

// DB returns the node as a dbapi.DB for the shared benchmark workloads. Its
// Begin and BeginRO take the worker's lease as BeginOn does, and run the
// transaction in the worker's own Tx: it escapes into the dbapi.Txn
// interface, and reusing it keeps a transaction off the heap.
func (n *Node) DB() dbapi.DB { return dbAdapter{n} }

func (a dbAdapter) Begin(worker int) dbapi.Txn {
	tx := a.begin(worker, false)
	a.n.maybeTrace(tx)
	return tx
}

func (a dbAdapter) BeginRO(worker int) dbapi.Txn { return a.begin(worker, true) }

func (a dbAdapter) begin(worker int, ro bool) *Tx {
	if a.n.closed.Load() {
		return closedTx
	}
	w := worker % a.n.cfg.Workers
	l := &a.n.leases[w]
	if !l.take() {
		return busyTx
	}
	l.tx = Tx{n: a.n, worker: w, leased: true, ro: ro}
	return &l.tx
}
