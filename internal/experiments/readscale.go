package experiments

import (
	"fmt"
	"io"
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

// ReadScaleRow is one point of the snapshot-read scaling experiment: a
// read/write mix at a given number of reader replicas.
type ReadScaleRow struct {
	WritePct int // writes as % of committed operations (0 or 5)
	Replicas int // reader replicas serving snapshots (owner excluded)
	ReadOps  int
	WriteOps int
	Elapsed  time.Duration
	Tps      float64 // snapshot reads per second
	Speedup  float64 // vs the 1-replica row of the same mix

	// The zero-owner-traffic invariants, asserted by the smoke test:
	// snapshot reads never touch the owner (it serves no ring reads for
	// this workload) and never generate ownership requests at the readers.
	OwnerRingReads uint64
	ReaderOwnReqs  uint64
}

// ReadScaleResult is the MVCC snapshot-read scaling experiment. Classic Zeus
// read-only transactions (§5.3) are already local, but they validate against
// the object's live seqlock word, so a write-heavy owner can starve them into
// retries; snapshot mode reads an immutable version-ring entry at a
// quorum-advanced safe-time instead. The claim under test: read throughput
// scales with the number of reader replicas because every replica serves
// snapshots from local memory and the owner sees ZERO read traffic — adding
// a replica adds read capacity without adding owner load. On a single-core
// host the sweep degenerates to a fairness check (rows within noise);
// MaxProcs records which regime produced the numbers.
type ReadScaleResult struct {
	MaxProcs int
	Rows     []ReadScaleRow
}

// ReadScale runs the snapshot-read scaling sweep: 100/0 and 95/5
// read/write mixes, each with 1, 2 and 4 reader replicas on a fixed 5-node
// cluster (constant safe-time quorum; only the replica placement varies).
func ReadScale(s Scale) ReadScaleResult {
	res := ReadScaleResult{MaxProcs: runtime.GOMAXPROCS(0)}
	for _, writePct := range []int{0, 5} {
		base := len(res.Rows)
		for _, replicas := range []int{1, 2, 4} {
			row := readScalePoint(s, writePct, replicas)
			if len(res.Rows) > base {
				row.Speedup = row.Tps / res.Rows[base].Tps
			} else {
				row.Speedup = 1
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

func readScalePoint(s Scale, writePct, replicas int) ReadScaleRow {
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

	row := ReadScaleRow{
		WritePct: writePct,
		Replicas: replicas,
		ReadOps:  int(reads.Load()),
		WriteOps: int(writes.Load()),
		Elapsed:  elapsed,
		Tps:      float64(reads.Load()) / elapsed.Seconds(),
	}
	row.OwnerRingReads, _ = c.Obs(owner).CounterValue("core_snapshot_reads_total")
	for i := 0; i < replicas; i++ {
		reqs, _ := c.Obs(i).CounterValue("own_requests_total")
		row.ReaderOwnReqs += reqs
	}
	return row
}

// Print renders the experiment.
func (r ReadScaleResult) Print(w io.Writer) {
	printHeader(w, fmt.Sprintf("Readscale: snapshot reads vs reader replicas (GOMAXPROCS=%d)", r.MaxProcs))
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  mix %3d/%d  replicas=%d  %7d reads (%5d writes) in %8s  %s  speedup %.2fx  owner-ring-reads=%d reader-own-reqs=%d\n",
			100-row.WritePct, row.WritePct, row.Replicas, row.ReadOps, row.WriteOps,
			row.Elapsed.Round(time.Millisecond), fmtTps(row.Tps), row.Speedup,
			row.OwnerRingReads, row.ReaderOwnReqs)
	}
	if r.MaxProcs == 1 {
		fmt.Fprintf(w, "  (single-core host: the sweep checks zero owner traffic and fairness, not speedup)\n")
	}
}
