package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/dbapi"
	"zeus/internal/wire"
)

// The engine micro-benchmarks: the §5.2 local commit, which returns before
// its followers hold the write. They run on core.Node.BeginOn, a layer below
// the public API, whose Commit waits for the followers (the root package's
// BenchmarkPublicUpdate prices that).

// benchCluster is zeus.Options{Nodes: 3, Workers: workers, Observability:
// obs} one layer down.
func benchCluster(workers int, obs bool) *Cluster {
	opts := DefaultOptions(3)
	opts.Workers = workers
	opts.Observability = obs
	return New(opts)
}

// BenchmarkLocalWriteTx measures a fully local write transaction (owner
// executes, pipelined replication to 2 followers) — Zeus' common case.
func BenchmarkLocalWriteTx(b *testing.B) {
	c := benchCluster(4, false)
	defer c.Close()
	c.SeedAt(1, 0, make([]byte, 128))
	n := c.Node(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := n.BeginOn(0)
		v, err := tx.Get(1)
		if err != nil {
			b.Fatal(err)
		}
		// Get's result is a view and Set adopts its argument: stage the new
		// value in a fresh buffer, the version this commit publishes.
		next := append([]byte(nil), v...)
		binary.LittleEndian.PutUint64(next, uint64(i))
		if err := tx.Set(1, next); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n.CommitEngine().WaitIdle(5 * time.Second)
}

// BenchmarkLocalWriteTxObs is BenchmarkLocalWriteTx with the observability
// registry enabled (metrics recording on every commit path, tracing off):
// the delta against BenchmarkLocalWriteTx is the full metrics overhead.
func BenchmarkLocalWriteTxObs(b *testing.B) {
	c := benchCluster(4, true)
	defer c.Close()
	c.SeedAt(1, 0, make([]byte, 128))
	n := c.Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := n.BeginOn(0)
		v, err := tx.Get(1)
		if err != nil {
			b.Fatal(err)
		}
		// Get's result is a view and Set adopts its argument: stage the new
		// value in a fresh buffer, the version this commit publishes.
		next := append([]byte(nil), v...)
		binary.LittleEndian.PutUint64(next, uint64(i))
		if err := tx.Set(1, next); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n.CommitEngine().WaitIdle(5 * time.Second)
	if v, _ := n.Obs().CounterValue("cmt_committed_total"); v == 0 {
		b.Fatal("observability enabled but cmt_committed_total is zero")
	}
}

// BenchmarkLocalWriteTxParallel measures fully local write transactions on
// distinct objects driven through all worker pipelines at once — the §7
// multi-core path. Each benchmark goroutine owns one object and runs on
// worker g mod workers, so contention is exactly what the engine imposes, not
// the workload: with the per-pipe commit locks, striped ownership maps and
// sharded dispatch, sub-benchmarks should scale with min(workers,
// GOMAXPROCS); on a single-core host all rows converge. Goroutines that share
// a worker (workers=1 on a multi-core host) take turns: a worker runs one
// transaction at a time, and a Begin on a busy one answers ErrConflict, which
// the loop retries at once and reports as busy/op.
func BenchmarkLocalWriteTxParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// A node dispatches on min(workers, GOMAXPROCS) shards, so
			// multi-core hosts get the parallel dispatch path and
			// single-core hosts skip the pointless queue hop.
			c := benchCluster(workers, false)
			defer c.Close()
			// Seed an object per potential goroutine: RunParallel spawns
			// GOMAXPROCS × parallelism of them.
			procs := runtime.GOMAXPROCS(0)
			par := (workers + procs - 1) / procs
			if par < 1 {
				par = 1
			}
			maxG := procs * par
			for g := 0; g < maxG; g++ {
				c.SeedAt(wire.ObjectID(1+g), 0, make([]byte, 128))
			}
			n := c.Node(0)
			var next atomic.Uint32
			var busy atomic.Int64
			b.SetParallelism(par)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := int(next.Add(1)) - 1
				w := g % workers
				obj := uint64(1 + g)
				i := 0
				for pb.Next() {
					for {
						tx := n.BeginOn(w)
						v, err := tx.Get(obj)
						if err == nil {
							next := append([]byte(nil), v...) // Set adopts it: one buffer per write
							binary.LittleEndian.PutUint64(next, uint64(i))
							if err = tx.Set(obj, next); err == nil {
								err = tx.Commit()
							}
						}
						if err == nil {
							break
						}
						tx.Abort()
						if !errors.Is(err, dbapi.ErrConflict) {
							b.Fatal(err)
						}
						busy.Add(1)
					}
					i++
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(busy.Load())/float64(b.N), "busy/op")
			n.CommitEngine().WaitIdle(10 * time.Second)
		})
	}
}

// BenchmarkPipelinedCommit measures back-to-back commits on one pipeline
// without waiting for replication (§5.2).
func BenchmarkPipelinedCommit(b *testing.B) {
	c := benchCluster(1, false)
	defer c.Close()
	c.SeedAt(1, 0, make([]byte, 400))
	n := c.Node(0)
	b.SetBytes(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := n.BeginOn(0)
		// Set adopts its argument as the published version: a fresh one per
		// commit, as an application makes it.
		if err := tx.Set(1, make([]byte, 400)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n.CommitEngine().WaitIdle(10 * time.Second)
}
