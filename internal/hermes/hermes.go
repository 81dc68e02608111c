// Package hermes is a compact implementation of the Hermes replication
// protocol (Katsarakis et al., ASPLOS '20) — the substrate the paper uses for
// its application-level load balancer's replicated key-value store (§3.1).
//
// Hermes is invalidation-based: a write at any replica broadcasts an INV
// carrying a lexicographically ordered timestamp and the new value; replicas
// invalidate, apply the higher-timestamped value and ACK; once all live
// replicas ACKed, the writer validates locally and broadcasts VAL. Reads are
// local and serve only Valid entries, which makes them linearizable.
// Concurrent writes to one key resolve by timestamp (exactly one wins).
package hermes

import (
	"errors"
	"sync"
	"time"

	"zeus/internal/retry"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// Errors.
var (
	// ErrTimeout: a write did not gather all ACKs in time.
	ErrTimeout = errors.New("hermes: write timed out")
	// ErrInvalid: the key is invalidated (a write is in flight).
	ErrInvalid = errors.New("hermes: key invalidated")
)

type state uint8

const (
	valid state = iota
	invalid
	writeState
)

type entry struct {
	state state
	ts    wire.OTS
	val   []byte
}

type pendingWrite struct {
	ts    wire.OTS
	acked wire.Bitmap
	need  wire.Bitmap
	done  chan bool
}

// KV is one replica of the Hermes-replicated store.
type KV struct {
	self     wire.NodeID
	replicas wire.Bitmap
	tr       transport.Transport
	agent    *viewsvc.Agent
	timeout  time.Duration

	mu      sync.Mutex
	entries map[uint64]*entry
	writes  map[uint64]*pendingWrite // one per key at a time (per writer)
}

// New creates a KV replica; replicas is the full replica group (all nodes of
// the load balancer tier). Register installs the handlers.
func New(self wire.NodeID, replicas wire.Bitmap, tr transport.Transport, agent *viewsvc.Agent) *KV {
	return &KV{
		self:     self,
		replicas: replicas,
		tr:       tr,
		agent:    agent,
		timeout:  time.Second,
		entries:  make(map[uint64]*entry),
		writes:   make(map[uint64]*pendingWrite),
	}
}

// Register installs the KV's message handlers on the router.
func (kv *KV) Register(r *transport.Router) {
	r.HandleMany(kv.Handle, wire.KindHermesInv, wire.KindHermesAck, wire.KindHermesVal)
}

// Handle dispatches one inbound Hermes message.
func (kv *KV) Handle(from wire.NodeID, m wire.Msg) {
	switch v := m.(type) {
	case *wire.HermesInv:
		kv.handleInv(v)
	case *wire.HermesAck:
		kv.handleAck(v)
	case *wire.HermesVal:
		kv.handleVal(v)
	}
}

// Get returns the local value of key; ok is false when absent. A key under
// invalidation returns ErrInvalid (callers retry — Hermes reads block until
// the write completes).
func (kv *KV) Get(key uint64) ([]byte, bool, error) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	e, ok := kv.entries[key]
	if !ok {
		return nil, false, nil
	}
	if e.state != valid {
		return nil, false, ErrInvalid
	}
	return append([]byte(nil), e.val...), true, nil
}

// getWaitPolicy paces GetWait's invalidation poll: fixed 50 µs probes
// (retrydiscipline: engine pacing goes through internal/retry), bounded by
// the caller's timeout via MaxElapsed.
var getWaitPolicy = retry.Policy{
	InitialBackoff: 50 * time.Microsecond,
	MaxBackoff:     50 * time.Microsecond,
	Multiplier:     1,
	Jitter:         -1,
}

// GetWait is Get with a bounded wait for in-flight writes to validate.
func (kv *KV) GetWait(key uint64, timeout time.Duration) ([]byte, bool, error) {
	var (
		v       []byte
		found   bool
		lastErr error
	)
	p := getWaitPolicy
	p.MaxElapsed = timeout
	if timeout <= 0 {
		p.MaxAttempts = 1
	}
	if err := retry.Do(nil, p, nil, func(int) error {
		v, found, lastErr = kv.Get(key)
		return lastErr
	}); err != nil {
		return nil, false, lastErr
	}
	return v, found, nil
}

// Put writes key=val, blocking until all live replicas acknowledged the
// invalidation. Returns the winning-or-not state implicitly: a concurrent
// higher-timestamped write may supersede this one (last-writer-wins).
func (kv *KV) Put(key uint64, val []byte) error {
	epoch := kv.agent.Epoch()
	live := kv.agent.View().Live.Intersect(kv.replicas)

	kv.mu.Lock()
	e, ok := kv.entries[key]
	if !ok {
		e = &entry{}
		kv.entries[key] = e
	}
	ts := wire.OTS{Ver: e.ts.Ver + 1, Node: kv.self}
	e.state = writeState
	e.ts = ts
	e.val = append([]byte(nil), val...)
	pw := &pendingWrite{ts: ts, need: live.Remove(kv.self), done: make(chan bool, 1)}
	kv.writes[key] = pw
	kv.mu.Unlock()

	inv := &wire.HermesInv{Key: key, TS: ts, Epoch: epoch, From: kv.self, Val: val}
	if pw.need.Count() == 0 {
		kv.finishWrite(key, ts)
		return nil
	}
	for _, n := range pw.need.Nodes() {
		_ = kv.tr.Send(n, inv)
	}
	select {
	case <-pw.done:
		return nil
	case <-time.After(kv.timeout):
		return ErrTimeout
	}
}

func (kv *KV) handleInv(m *wire.HermesInv) {
	if m.Epoch != kv.agent.Epoch() {
		return
	}
	kv.mu.Lock()
	e, ok := kv.entries[m.Key]
	if !ok {
		e = &entry{}
		kv.entries[m.Key] = e
	}
	if e.ts.Less(m.TS) {
		e.state = invalid
		e.ts = m.TS
		e.val = m.Val
		// A lower-timestamped local write lost; its VAL will be ignored
		// everywhere, and this INV's writer revalidates the key.
	}
	kv.mu.Unlock()
	_ = kv.tr.Send(m.From, &wire.HermesAck{Key: m.Key, TS: m.TS, Epoch: m.Epoch, From: kv.self})
}

func (kv *KV) handleAck(m *wire.HermesAck) {
	if m.Epoch != kv.agent.Epoch() {
		return
	}
	kv.mu.Lock()
	pw, ok := kv.writes[m.Key]
	if !ok || pw.ts != m.TS {
		kv.mu.Unlock()
		return
	}
	pw.acked = pw.acked.Add(m.From)
	complete := pw.acked.Intersect(pw.need) == pw.need
	kv.mu.Unlock()
	if complete {
		kv.finishWrite(m.Key, m.TS)
	}
}

func (kv *KV) finishWrite(key uint64, ts wire.OTS) {
	kv.mu.Lock()
	pw := kv.writes[key]
	if pw == nil || pw.ts != ts {
		kv.mu.Unlock()
		return
	}
	delete(kv.writes, key)
	if e := kv.entries[key]; e != nil && e.ts == ts {
		e.state = valid
	}
	kv.mu.Unlock()
	select {
	case pw.done <- true:
	default:
	}
	epoch := kv.agent.Epoch()
	for _, n := range kv.replicas.Intersect(kv.agent.View().Live).Nodes() {
		if n != kv.self {
			_ = kv.tr.Send(n, &wire.HermesVal{Key: key, TS: ts, Epoch: epoch})
		}
	}
}

func (kv *KV) handleVal(m *wire.HermesVal) {
	if m.Epoch != kv.agent.Epoch() {
		return
	}
	kv.mu.Lock()
	if e := kv.entries[m.Key]; e != nil && e.ts == m.TS && e.state == invalid {
		e.state = valid
	}
	kv.mu.Unlock()
}

// Len returns the number of keys stored locally.
func (kv *KV) Len() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return len(kv.entries)
}
