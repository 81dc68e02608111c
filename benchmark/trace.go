package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zeus/internal/dbapi"
)

// The tracer sits between the workload generators and the nodes: it wraps
// dbapi.DB and dbapi.Txn and records a span around every call into the
// engine. Spans inside the engine are a later change; from out here the
// layers below core (commit, ownership, transport) are read from their
// counters and hooks instead.
//
// Span tree of one op:
//
//	op                      the generator's call, from the client loop
//	└─ dbapi.run            first Begin → last Commit/Abort return
//	   └─ dbapi.attempt     one Begin → its Commit/Abort return
//	      └─ core.begin | core.get | core.set | core.commit | core.abort
//
// dbapi.Run is a plain function and cannot be wrapped, so its span is
// inferred from the calls it makes: its self time is the gap between
// attempts, which is the retry back-off. An attempt's self time is the
// transaction body (generator code between engine calls).

type spanKind uint8

const (
	spOp spanKind = iota
	spRun
	spAttempt
	spBegin
	spGet
	spSet
	spCommit
	spAbort
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "dbapi.run", "dbapi.attempt",
	"core.begin", "core.get", "core.set", "core.commit", "core.abort",
}

type span struct {
	kind       spanKind
	parent     int16 // index in the op's span list, -1 for the op itself
	start, end int64 // ns since the tracer's base time
}

const (
	maxOpSpans  = 256  // spans recorded per op; a longer retry storm folds into its parents
	sampleEvery = 64   // ops kept in memory for the span file, durable-lag samples
	maxKeptOps  = 8192 // per client: bounds the span file to a few MB
)

// The aggregates keep ops that ran a write transaction, a read-only one, or
// none (the generator drew the same account twice) apart.
const (
	classNone = iota
	classWrite
	classRO
	numClasses
)

// clientTrace is one client's recorder. Only that client's goroutine
// touches it while the run is on.
type clientTrace struct {
	t  *tracer
	id int
	on bool // set by the client loop: tracing is on in odd windows

	spans    [maxOpSpans]span
	selfBuf  [maxOpSpans]int64 // endOp's scratch
	n        int
	run, att int16 // open dbapi.run / dbapi.attempt span, -1 when none
	class    int
	txn      tracedTxn // at most one transaction is open per client

	opSeq    uint64
	commits  uint64 // write commits, for durable-lag sampling
	ops      uint64 // traced ops aggregated
	classOps [numClasses]uint64
	attempts uint64
	self     [numClasses][numSpanKinds]int64 // summed self time, ns
	roTx     int64                           // summed duration of committed RO attempts
	loopLat  int64                           // summed op latency as the client loop saw it
	kept     []keptOp

	durable chan durableSample
	lag     hist // owned by the watcher goroutine until stop
}

type keptOp struct {
	id    uint64
	spans []span
}

type durableSample struct {
	committed time.Time
	done      <-chan struct{}
}

type tracer struct {
	base    time.Time
	clients []*clientTrace
	watch   sync.WaitGroup

	mu      sync.Mutex
	acquire hist // ownership acquisition latency, from the engine's hook
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	for k := 0; k < clients; k++ {
		ct := &clientTrace{
			t: t, id: k, run: -1, att: -1,
			// One sample per 64 commits (a few thousand a second) and a
			// lag of a millisecond: the watcher is a handful of samples
			// behind. A full buffer drops the sample rather than stall
			// the client.
			durable: make(chan durableSample, 256),
		}
		ct.txn.ct = ct
		t.clients = append(t.clients, ct)
		t.watch.Add(1)
		go ct.watchDurable()
	}
	return t
}

// stop ends the durable-lag watchers; call once the clients have returned.
func (t *tracer) stop() {
	for _, ct := range t.clients {
		close(ct.durable)
	}
	t.watch.Wait()
}

// ownershipLatency is cluster.Options.OnOwnershipLatency: it runs on engine
// goroutines, a few thousand times a second at most.
func (t *tracer) ownershipLatency(d time.Duration) {
	t.mu.Lock()
	t.acquire.record(int64(d))
	t.mu.Unlock()
}

// watchDurable timestamps the moment a sampled commit became durable on all
// followers. Samples are waited for in commit order; the reading includes
// this goroutine's wake-up.
func (ct *clientTrace) watchDurable() {
	defer ct.t.watch.Done()
	for s := range ct.durable {
		<-s.done
		ct.lag.record(int64(time.Since(s.committed)))
	}
}

func (ct *clientTrace) now() int64 { return int64(time.Since(ct.t.base)) }

func (ct *clientTrace) push(kind spanKind, parent int16, start int64) int16 {
	if ct.n == maxOpSpans {
		return -1
	}
	ct.spans[ct.n] = span{kind: kind, parent: parent, start: start}
	ct.n++
	return int16(ct.n - 1)
}

func (ct *clientTrace) end(i int16, at int64) {
	if i >= 0 {
		ct.spans[i].end = at
	}
}

func (ct *clientTrace) beginOp() {
	ct.n = 0
	ct.run, ct.att, ct.class = -1, -1, classNone
	ct.push(spOp, -1, ct.now())
}

// endOp closes the op span at the client loop's own timestamp and folds the
// op into the aggregates. loopLat is the latency the untraced loop would
// have recorded: it also covers the bookkeeping below, done after `at` for
// the previous op, which no span covers.
func (ct *clientTrace) endOp(at time.Time, loopLat time.Duration, ok bool) {
	if ct.n == 0 || !ok {
		return
	}
	ct.spans[0].end = int64(at.Sub(ct.t.base))
	ct.opSeq++
	ct.ops++
	ct.loopLat += int64(loopLat)

	spans, self := ct.spans[:ct.n], ct.selfBuf[:ct.n]
	clear(self)
	for i := range spans {
		d := spans[i].end - spans[i].start
		self[i] += d
		if p := spans[i].parent; p >= 0 {
			self[p] -= d
		}
	}
	ct.classOps[ct.class]++
	for i := range spans {
		ct.self[ct.class][spans[i].kind] += self[i]
	}
	if ct.opSeq%sampleEvery == 0 && len(ct.kept) < maxKeptOps {
		ct.kept = append(ct.kept, keptOp{
			id:    ct.opSeq*uint64(clients) + uint64(ct.id),
			spans: append([]span(nil), spans...),
		})
	}
}

// tracedDB decorates a node's dbapi.DB. The worker id names the client.
type tracedDB struct {
	inner dbapi.DB
	t     *tracer
}

func (d tracedDB) Begin(worker int) dbapi.Txn   { return d.begin(worker, false) }
func (d tracedDB) BeginRO(worker int) dbapi.Txn { return d.begin(worker, true) }

func (d tracedDB) begin(worker int, ro bool) dbapi.Txn {
	ct := d.t.clients[worker]
	if !ct.on {
		if ro {
			return d.inner.BeginRO(worker)
		}
		return d.inner.Begin(worker)
	}
	start := ct.now()
	if ct.run < 0 {
		ct.run = ct.push(spRun, 0, start)
	}
	ct.att = ct.push(spAttempt, ct.run, start)
	ct.attempts++
	s := ct.push(spBegin, ct.att, start)
	if ro {
		ct.class = classRO
		ct.txn.inner = d.inner.BeginRO(worker)
	} else {
		ct.class = classWrite
		ct.txn.inner = d.inner.Begin(worker)
	}
	ct.end(s, ct.now())
	return &ct.txn
}

type tracedTxn struct {
	ct    *clientTrace
	inner dbapi.Txn
}

func (x *tracedTxn) Get(obj uint64) ([]byte, error) {
	ct := x.ct
	s := ct.push(spGet, ct.att, ct.now())
	v, err := x.inner.Get(obj)
	ct.end(s, ct.now())
	return v, err
}

func (x *tracedTxn) Set(obj uint64, val []byte) error {
	ct := x.ct
	s := ct.push(spSet, ct.att, ct.now())
	err := x.inner.Set(obj, val)
	ct.end(s, ct.now())
	return err
}

func (x *tracedTxn) Commit() error {
	ct := x.ct
	s := ct.push(spCommit, ct.att, ct.now())
	err := x.inner.Commit()
	at := ct.now()
	ct.end(s, at)
	ct.closeAttempt(at)
	if err != nil {
		return err
	}
	if ct.class == classRO {
		if ct.att >= 0 {
			ct.roTx += at - ct.spans[ct.att].start
		}
		return nil
	}
	ct.commits++
	if ct.commits%sampleEvery == 0 {
		if d, ok := x.inner.(interface{ Durable() <-chan struct{} }); ok && d.Durable() != nil {
			select {
			case ct.durable <- durableSample{committed: ct.t.base.Add(time.Duration(at)), done: d.Durable()}:
			default:
			}
		}
	}
	return nil
}

func (x *tracedTxn) Abort() {
	ct := x.ct
	s := ct.push(spAbort, ct.att, ct.now())
	x.inner.Abort()
	at := ct.now()
	ct.end(s, at)
	ct.closeAttempt(at)
}

func (ct *clientTrace) closeAttempt(at int64) {
	ct.end(ct.att, at)
	ct.end(ct.run, at)
}

// writeSpans writes the kept ops as one JSON document: every span carries
// its op's id, its own index and its parent's.
func (t *tracer) writeSpans(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"sample_every\":%d,\"spans\":[", workload, seed, sampleEvery)
	first := true
	for _, ct := range t.clients {
		for _, op := range ct.kept {
			for i, s := range op.spans {
				if !first {
					w.WriteByte(',')
				}
				first = false
				fmt.Fprintf(w, "\n{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}",
					op.id, i, s.parent, spanNames[s.kind], s.start, s.end)
			}
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
