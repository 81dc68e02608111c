package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/wire"
)

// waitFor polls until cond or the deadline; sharded dispatch is asynchronous
// so tests synchronize on observed effects.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestShardedDispatchPreservesPerKeyFIFO floods a sharded router with
// interleaved commit traffic on many pipes and ownership traffic on many
// objects, from several producer goroutines (one per pipe/object, so each
// key's stream is well-ordered at the source like a transport link), and
// asserts every key's messages were handled in order — the FIFO the commit
// pipeline (§5.2) and per-object arbitration rely on.
func TestShardedDispatchPreservesPerKeyFIFO(t *testing.T) {
	const (
		shards  = 4
		pipes   = 8
		objects = 8
		perKey  = 500
	)
	r := NewRouter()
	r.EnableSharding(shards)
	defer r.CloseShards()

	var handled atomic.Int64
	pipeSeq := make([][]uint64, pipes)
	objSeq := make([][]uint64, objects)
	var mu sync.Mutex // guards the slices' append; per-key order is the assertion
	r.Handle(wire.KindCommitInv, func(_ wire.NodeID, m wire.Msg) {
		inv := m.(*wire.CommitInv)
		mu.Lock()
		pipeSeq[inv.Tx.Pipe.Worker] = append(pipeSeq[inv.Tx.Pipe.Worker], inv.Tx.Local)
		mu.Unlock()
		handled.Add(1)
	})
	r.Handle(wire.KindOwnInv, func(_ wire.NodeID, m wire.Msg) {
		inv := m.(*wire.OwnInv)
		mu.Lock()
		objSeq[inv.Obj] = append(objSeq[inv.Obj], inv.TS.Ver)
		mu.Unlock()
		handled.Add(1)
	})

	var wg sync.WaitGroup
	for p := 0; p < pipes; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= perKey; i++ {
				r.Dispatch(1, &wire.CommitInv{Tx: wire.TxID{
					Pipe: wire.PipeID{Node: 1, Worker: wire.Worker(p)}, Local: uint64(i)}})
			}
		}(p)
	}
	for o := 0; o < objects; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			for i := 1; i <= perKey; i++ {
				r.Dispatch(2, &wire.OwnInv{Obj: wire.ObjectID(o), TS: wire.OTS{Ver: uint64(i)}})
			}
		}(o)
	}
	wg.Wait()
	waitFor(t, "all messages handled", func() bool {
		return handled.Load() == int64((pipes+objects)*perKey)
	})

	for p, seq := range pipeSeq {
		if len(seq) != perKey {
			t.Fatalf("pipe %d: %d messages, want %d", p, len(seq), perKey)
		}
		for i, v := range seq {
			if v != uint64(i+1) {
				t.Fatalf("pipe %d reordered at %d: got local %d", p, i, v)
			}
		}
	}
	for o, seq := range objSeq {
		if len(seq) != perKey {
			t.Fatalf("obj %d: %d messages, want %d", o, len(seq), perKey)
		}
		for i, v := range seq {
			if v != uint64(i+1) {
				t.Fatalf("obj %d reordered at %d: got ts %d", o, i, v)
			}
		}
	}
}

// TestShardedDispatchKeepsUnkeyedInline verifies that kinds without a shard
// key (membership, KV, baseline RPCs) are still handled synchronously on the
// dispatching goroutine, exactly as without sharding.
func TestShardedDispatchKeepsUnkeyedInline(t *testing.T) {
	r := NewRouter()
	r.EnableSharding(4)
	defer r.CloseShards()
	called := false
	r.Handle(wire.KindSafeTime, func(wire.NodeID, wire.Msg) { called = true })
	r.Dispatch(0, &wire.SafeTime{Epoch: 1})
	if !called {
		t.Fatal("unkeyed message was not dispatched inline")
	}
}

// TestShardedTickRunsAfterFrameMessages asserts the delivery-tick contract
// engines coalesce on: when Tick fires after a burst of keyed messages, the
// hooks observe a state where those messages have been handled (the tick
// token trails them in the shard FIFO).
func TestShardedTickRunsAfterFrameMessages(t *testing.T) {
	const msgs = 200
	r := NewRouter()
	r.EnableSharding(4)
	defer r.CloseShards()

	var handled atomic.Int64
	r.Handle(wire.KindCommitInv, func(wire.NodeID, wire.Msg) { handled.Add(1) })
	var sawAll atomic.Bool
	r.OnTick(func() {
		if handled.Load() == msgs {
			sawAll.Store(true)
		}
	})
	for i := 1; i <= msgs; i++ {
		// One key: all messages and the trailing tick share a shard FIFO.
		r.Dispatch(1, &wire.CommitInv{Tx: wire.TxID{
			Pipe: wire.PipeID{Node: 1, Worker: 0}, Local: uint64(i)}})
	}
	r.Tick()
	waitFor(t, "tick after all messages", func() bool { return sawAll.Load() })
}

// TestCloseShardsStopsDelivery ensures shutdown drops queued work without
// wedging dispatchers.
func TestCloseShardsStopsDelivery(t *testing.T) {
	r := NewRouter()
	r.EnableSharding(2)
	var n atomic.Int64
	r.Handle(wire.KindCommitInv, func(wire.NodeID, wire.Msg) { n.Add(1) })
	for i := 0; i < 100; i++ {
		r.Dispatch(1, &wire.CommitInv{Tx: wire.TxID{Pipe: wire.PipeID{Node: 1}, Local: uint64(i)}})
	}
	r.CloseShards()
	// Dispatch after close: inline again (shards gone), must not panic.
	r.Dispatch(1, &wire.CommitInv{Tx: wire.TxID{Pipe: wire.PipeID{Node: 1}, Local: 1}})
}

// TestShardQueueKeepsNoHandledMessage: a shard swaps between two arrays, and
// the one it just drained becomes the next queue. Its slots must be cleared
// by then — a handled R-INV left behind pins its whole commit slot (the
// message is embedded in it) for as long as the shard stays quiet.
func TestShardQueueKeepsNoHandledMessage(t *testing.T) {
	r := NewRouter()
	r.EnableSharding(2)
	defer r.CloseShards()
	var handled atomic.Int64
	r.Handle(wire.KindCommitVal, func(wire.NodeID, wire.Msg) { handled.Add(1) })
	for round := int64(1); round <= 4; round++ { // one pipe, so one shard; each round swaps its arrays
		for i := uint64(0); i < 16; i++ {
			r.Dispatch(1, ping(i))
		}
		waitFor(t, "the round's messages", func() bool { return handled.Load() == round*16 })
		for _, s := range r.shards {
			s.mu.Lock()
			for _, it := range s.items[len(s.items):cap(s.items)] {
				if it.m != nil {
					s.mu.Unlock()
					t.Fatalf("round %d: the drained queue array still references a handled message", round)
				}
			}
			s.mu.Unlock()
		}
	}
}
