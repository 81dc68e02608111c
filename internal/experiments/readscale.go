package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
	"zeus/internal/loadgen"
	"zeus/internal/wire"
)

// ReadScale is the MVCC snapshot-read scaling experiment: 100/0 and 95/5
// read/write mixes (writes as a share of committed operations), each with 1,
// 2 and 4 reader replicas on a fixed 5-node cluster (constant safe-time
// quorum; only the replica placement varies). Classic Zeus read-only
// transactions (§5.3) are already local, but they validate against the
// object's live seqlock word, so a write-heavy owner can starve them into
// retries; snapshot mode reads an immutable version-ring entry at a
// quorum-advanced safe-time instead. The claim under test: read throughput
// scales with the number of reader replicas because every replica serves
// snapshots from local memory and the owner sees ZERO read traffic (no ring
// reads at the owner, no ownership requests at the readers) — adding a
// replica adds read capacity without adding owner load. On a single-core
// host the sweep degenerates to a fairness check (rows within noise).
func ReadScale(s Scale) Table {
	t := Table{
		Title: "Readscale: snapshot reads vs reader replicas",
		Cols: []string{"mix", "replicas", "reads", "writes", "elapsed", "reads/s", "speedup",
			"owner ring reads", "reader own reqs"},
		Notes: procsNote("the sweep checks zero owner traffic and fairness, not speedup"),
	}
	for _, writePct := range []int{0, 5} {
		base := len(t.Rows)
		for _, replicas := range []int{1, 2, 4} {
			row := readScalePoint(s, writePct, replicas)
			if len(t.Rows) > base {
				row[6] = ratio(row[5].(float64), t.Num(base, "reads/s"))
			}
			t.add(row...)
		}
	}
	return t
}

// readScalePoint runs one point of ReadScale: its row, with a speedup of 1.
func readScalePoint(s Scale, writePct, replicas int) []any {
	const (
		nodes      = 5
		objects    = 64
		payload    = 128
		readsPerTx = 8
	)
	owner := nodes - 1
	opts := cluster.DefaultOptions(nodes)
	opts.Workers = s.Workers
	opts.SnapshotReads = true
	// The zero-owner-traffic invariants are read from the per-node obs
	// registries (core_snapshot_reads_total / own_requests_total) instead of
	// ad-hoc engine stats — the experiment doubles as a live check that the
	// instrumented paths count correctly.
	opts.Observability = true
	c := cluster.New(opts)
	defer c.Close()

	var readerSet wire.Bitmap
	for i := 0; i < replicas; i++ {
		readerSet = readerSet.Add(wire.NodeID(i))
	}
	for o := 1; o <= objects; o++ {
		c.Seed(wire.ObjectID(o), wire.NodeID(owner), readerSet, make([]byte, payload))
	}

	roTxs := s.OpsPerWorker
	if roTxs < 50 {
		roTxs = 50
	}
	var reads, writes atomic.Int64

	// The writer runs at the owner (the paper's locality model: writes where
	// ownership lives, reads anywhere) and paces itself off the global read
	// counter so committed operations track the requested mix.
	stopWriter := make(chan struct{})
	var writerWG sync.WaitGroup
	if writePct > 0 {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			n := c.Node(owner)
			rng := rand.New(rand.NewSource(1))
			for {
				select {
				case <-stopWriter:
					return
				default:
				}
				target := int(reads.Load()) * writePct / (100 - writePct)
				if int(writes.Load()) >= target {
					runtime.Gosched()
					continue
				}
				obj := uint64(1 + rng.Intn(objects))
				err := dbapi.Run(n.DB(), 0, func(tx dbapi.Txn) error {
					v, err := tx.Get(obj)
					if err != nil {
						return err
					}
					return tx.Set(obj, v)
				})
				if err == nil {
					writes.Add(1)
				}
			}
		}()
	}

	ops := make([]bench.Op, replicas)
	for node := range ops {
		db := c.Node(node).DB()
		ops[node] = func(w int, rng *rand.Rand) error {
			err := dbapi.RunRO(db, w, func(tx dbapi.Txn) error {
				for r := 0; r < readsPerTx; r++ {
					if _, err := tx.Get(uint64(1 + rng.Intn(objects))); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil {
				reads.Add(readsPerTx)
			}
			return err
		}
	}
	elapsed := closedLoop(loadgen.Config{Arrival: loadgen.ClosedLoop{Ops: roTxs}, Seed: 1}, s.Workers, ops).Elapsed
	close(stopWriter)
	writerWG.Wait()
	c.WaitIdle(10 * time.Second)

	ownerRingReads, _ := c.Obs(owner).CounterValue("core_snapshot_reads_total")
	var readerOwnReqs uint64
	for i := 0; i < replicas; i++ {
		reqs, _ := c.Obs(i).CounterValue("own_requests_total")
		readerOwnReqs += reqs
	}
	return []any{fmt.Sprintf("%d/%d", 100-writePct, writePct), replicas, int(reads.Load()), int(writes.Load()),
		elapsed, float64(reads.Load()) / elapsed.Seconds(), 1.0, ownerRingReads, readerOwnReqs}
}
