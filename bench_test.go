// Benchmarks regenerating every table and figure of the paper's evaluation
// (§8), plus protocol micro-benchmarks. BenchmarkFigures runs each experiment
// of internal/experiments at a compact scale and reports its headline cells
// via b.ReportMetric; run cmd/zeus-bench -full for the larger populations.
package zeus_test

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"zeus"
	"zeus/internal/cluster"
	"zeus/internal/experiments"
	"zeus/internal/wire"
)

// benchScale keeps figure benchmarks fast enough for -bench=. sweeps.
var benchScale = experiments.Scale{
	AccountsPerNode:    1000,
	SubscribersPerNode: 1000,
	VotersPerNode:      1000,
	UsersPerNode:       500,
	Sessions:           300,
	Workers:            4,
	OpsPerWorker:       150,
	Duration:           400 * time.Millisecond,
	Interval:           100 * time.Millisecond,
	Packets:            1000,
}

// --- Micro-benchmarks: the two Zeus protocols and the transaction layer ---

// BenchmarkPublicUpdate measures a 1-object read-modify-write through the
// public Update on the hub: the local commit plus the wait for both
// followers' R-ACKs, which Update returns after. The engine's local commit
// alone is internal/cluster's BenchmarkLocalWriteTx.
func BenchmarkPublicUpdate(b *testing.B) {
	c := zeus.New(zeus.Options{Nodes: 3, Workers: 4})
	defer c.Close()
	c.Seed(1, 0, make([]byte, 128))
	n := c.Node(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Update(0, func(tx *zeus.Tx) error {
			v, err := tx.Get(1)
			if err != nil {
				return err
			}
			next := append([]byte(nil), v...) // Set adopts it: one buffer per write
			binary.LittleEndian.PutUint64(next, uint64(i))
			return tx.Set(1, next)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadOnlyTx measures a local strictly serializable read-only
// transaction on a reader replica (§5.3: no network traffic).
func BenchmarkReadOnlyTx(b *testing.B) {
	c := zeus.New(zeus.Options{Nodes: 3, Workers: 4})
	defer c.Close()
	c.Seed(1, 0, make([]byte, 128))
	n := c.Node(1) // a reader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := n.BeginRO()
		if _, err := tx.Get(1); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOwnershipTransfer measures the reliable ownership protocol: each
// iteration bounces one object between two nodes (§4: 1.5 RTT fast path).
// nacks/op is the requests that did not succeed per bounce: a bounce whose
// driver has not seen the previous move's VAL yet is NACKed and sleeps one
// back-off, which is what ns/op mostly measures while that number is near 1.
func BenchmarkOwnershipTransfer(b *testing.B) {
	// zeus.Options{Nodes: 4, Workers: 2}, built one layer down: the public
	// API does not expose the ownership engine's request counters.
	co := cluster.DefaultOptions(4)
	co.Workers = 2
	c := cluster.New(co)
	defer c.Close()
	c.SeedAt(1, 0, make([]byte, 128))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := c.Node(i % 2).OwnershipEngine() // alternate owners 0 ↔ 1
		if err := dst.AcquireOwnership(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var requests, succeeded uint64
	for i := 0; i < 2; i++ {
		s := c.Node(i).OwnershipEngine().Stats()
		requests += s.Requests
		succeeded += s.Succeeded
	}
	b.ReportMetric(float64(requests-succeeded)/float64(b.N), "nacks/op")
}

// BenchmarkWireCommitInv measures the codec on the hot replication path.
func BenchmarkWireCommitInv(b *testing.B) {
	m := &wire.CommitInv{
		Tx:        wire.TxID{Pipe: wire.PipeID{Node: 1, Worker: 2}, Local: 77},
		Epoch:     3,
		Followers: wire.BitmapOf(0, 2),
		Updates:   []wire.Update{{Obj: 42, Version: 9, Data: make([]byte, 400)}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := wire.Marshal(m)
		if _, err := wire.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeStream measures the inbound half of the replication path
// as a read loop runs it: one Decoder walking a batch of two-update R-INVs,
// each followed by an R-ACK and an R-VAL naming its slot alone, and every
// eighth slot by a window R-ACK and R-VAL naming the eight slots up to it.
// One op is one message; mallocs/msg is what the chunks leave of the one-shot
// decode's 3, 1 and 1.
func BenchmarkWireDecodeStream(b *testing.B) {
	var stream []byte
	for i := uint64(1); i <= wire.ChunkRecords; i++ {
		tx := wire.TxID{Pipe: wire.PipeID{Node: 1, Worker: 2}, Local: i}
		stream = wire.AppendMessage(stream, &wire.CommitInv{Tx: tx, Epoch: 3, Followers: wire.BitmapOf(0, 2),
			Updates: []wire.Update{{Obj: 42, Version: i, Data: make([]byte, 64)}, {Obj: 43, Version: i, Data: make([]byte, 64)}}})
		stream = wire.AppendMessage(stream, &wire.CommitAck{Tx: tx, Epoch: 3, From: 2})
		stream = wire.AppendMessage(stream, &wire.CommitVal{Tx: tx, Epoch: 3})
		if i%8 == 0 {
			run := wire.TxID{Pipe: tx.Pipe, Local: i - 7}
			stream = wire.AppendMessage(stream, &wire.CommitAck{Tx: run, More: 0x7f, Epoch: 3, From: 2})
			stream = wire.AppendMessage(stream, &wire.CommitVal{Tx: run, More: 0x7f, Epoch: 3})
		}
	}
	var dec wire.Decoder
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; {
		it := wire.NewBatchIter(stream)
		for raw, _ := it.Next(); raw != nil && i < b.N; raw, _ = it.Next() {
			if _, err := dec.Unmarshal(raw); err != nil {
				b.Fatal(err)
			}
			i++
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	// -benchmem rounds to whole allocations, and the answer is a fraction.
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "mallocs/msg")
}

// --- Table and figure benchmarks (one per paper artefact) ---

// figureMetrics are the experiments BenchmarkFigures runs, and the cells it
// reports for each: a metric name, and the row and column of the cell it
// reports (a duration in µs). directory and slo are not among them: they
// run through zeus-bench, where slo's verdicts gate.
var figureMetrics = map[string][]struct {
	name string
	row  int
	col  string
}{
	"tab2":      nil,
	"locality":  {{"boston-remote-%", 1, "remote %"}, {"venmo-remote-%", 4, "remote %"}, {"tpcc-remote-%", 6, "remote %"}},
	"fig7":      {{"zeus-tps", 3, "zeus tx/s"}, {"ideal-tps", 3, "ideal tx/s"}, {"gap-%", 3, "gap %"}},
	"fig8":      {{"zeus3@0%-tps/node", 0, "zeus-3 tx/s/node"}, {"occ2pc@0%-tps/node", 0, "occ2pc tx/s/node"}},
	"fig9":      {{"zeus3@0%-tps/node", 0, "zeus-3 tx/s/node"}, {"occ2pc@0%-tps/node", 0, "occ2pc tx/s/node"}},
	"fig10":     {{"moves/s", 0, "move obj/s"}, {"votes", 0, "votes"}},
	"fig11":     {{"hot-moves/s", 0, "move obj/s"}},
	"fig12":     {{"mean-µs", 0, "mean"}, {"p99.9-µs", 0, "p999"}},
	"fig13":     {{"local-tps", 0, "tx/s"}, {"blocking-tps", 1, "tx/s"}, {"zeus1-tps", 2, "tx/s"}, {"zeus2-tps", 3, "tx/s"}},
	"fig14":     {{"norepl-Mbps@1440", 1, "no-repl Mbps"}, {"zeus-Mbps@1440", 1, "zeus Mbps"}},
	"fig15":     {{"1proxy-tps", 0, "tx/s"}, {"2proxy-tps", 1, "tx/s"}},
	"ablation":  {{"pipelined-tps", 0, "tx/s"}, {"blocking-tps", 1, "tx/s"}},
	"transport": {{"msgs/frame", 0, "msgs/frame"}, {"acks/frame", 0, "acks/frame"}},
	"scaling":   {{"speedup-8w", 3, "speedup"}, {"tps-8w", 3, "tx/s"}},
	"readscale": {{"reads/s@95-5x4r", 5, "reads/s"}, {"speedup-4r", 5, "speedup"}},
}

// BenchmarkFigures regenerates the tables and figures of the evaluation that
// figureMetrics names (in experiments.All's order, one sub-benchmark an id)
// at benchScale, and reports their headline cells.
func BenchmarkFigures(b *testing.B) {
	for _, e := range experiments.All {
		metrics, ok := figureMetrics[e.ID]
		if !ok {
			continue
		}
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			var t experiments.Table
			for i := 0; i < b.N; i++ {
				t = e.Run(benchScale)
			}
			for _, m := range metrics {
				v := t.Num(m.row, m.col)
				if d, ok := t.Rows[m.row][t.Col(m.col)].(time.Duration); ok {
					v = float64(d.Microseconds())
				}
				b.ReportMetric(v, m.name)
			}
		})
	}
}
