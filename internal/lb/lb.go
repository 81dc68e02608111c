// Package lb is the application-level load balancer of §3.1: it extracts a
// key from each request and always forwards requests with the same key to
// the same Zeus node, which is what creates the access locality Zeus
// exploits. The key → destination map lives in a Hermes-replicated KV
// (internal/hermes); unknown keys are assigned a destination at random and
// remembered.
package lb

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"zeus/internal/hermes"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// Balancer routes request keys to Zeus nodes.
type Balancer struct {
	kv    *hermes.KV
	agent *viewsvc.Agent

	mu  sync.Mutex
	rng *rand.Rand
}

// New creates a balancer over an existing Hermes KV replica.
func New(kv *hermes.KV, agent *viewsvc.Agent, seed int64) *Balancer {
	return &Balancer{kv: kv, agent: agent, rng: rand.New(rand.NewSource(seed))}
}

// HashKey maps an application-level string key onto the KV keyspace.
func HashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// Route returns the destination node for key, assigning one at random on
// first sight (sticky thereafter).
func (b *Balancer) Route(key uint64) (wire.NodeID, error) {
	v, ok, err := b.kv.GetWait(key, 100*time.Millisecond)
	if err != nil {
		return wire.NoNode, err
	}
	if ok && len(v) >= 2 {
		dst := wire.NodeID(binary.LittleEndian.Uint16(v))
		if b.agent.IsLive(dst) {
			return dst, nil
		}
		// The sticky destination died: re-assign below.
	}
	dst := b.pick()
	if err := b.Assign(key, dst); err != nil {
		return wire.NoNode, err
	}
	// Re-read: a concurrent assignment may have won (last-writer-wins);
	// every balancer converges to the same destination either way.
	if v, ok, err := b.kv.GetWait(key, 100*time.Millisecond); err == nil && ok && len(v) >= 2 {
		return wire.NodeID(binary.LittleEndian.Uint16(v)), nil
	}
	return dst, nil
}

// Assign pins key to dst explicitly (used by re-sharding policies and the
// scale-in/out experiments).
func (b *Balancer) Assign(key uint64, dst wire.NodeID) error {
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], uint16(dst))
	return b.kv.Put(key, buf[:])
}

// RouteString is Route over a string key.
func (b *Balancer) RouteString(key string) (wire.NodeID, error) {
	return b.Route(HashKey(key))
}

func (b *Balancer) pick() wire.NodeID {
	live := b.agent.View().Live.Nodes()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(live) == 0 {
		return wire.NoNode
	}
	return live[b.rng.Intn(len(live))]
}
