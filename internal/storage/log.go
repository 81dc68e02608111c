package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/obs"
)

// ErrClosed is returned by Log.Append after Close.
var ErrClosed = errors.New("storage: log closed")

// Log is the group-commit front end over a Storage driver. Concurrent
// appenders stage records under a mutex; a single flusher goroutine hands
// whole batches to the driver, so the hot path pays one driver Append (one
// fsync for filestorage) per batch instead of per record. Append returns
// once the batch containing the caller's records is durable.
type Log struct {
	s    Storage
	mu   sync.Mutex
	cur  *logBatch
	kick chan struct{}
	quit chan struct{}
	done sync.WaitGroup

	closed   atomic.Bool
	appended atomic.Int64 // records appended since the last mark

	// obs holds the group-commit metric handles; nil (NewLog without a
	// registry) keeps the seed flush path.
	obs *logObs
}

// logObs caches the WAL metric handles (resolved once, in NewLog).
type logObs struct {
	// appendNS is the driver Append latency per batch (the fsync for
	// filestorage); batchRecs is the group-commit batch size — together
	// they show how well concurrent appenders amortize the sync.
	appendNS  *obs.Histogram
	batchRecs *obs.Histogram
}

type logBatch struct {
	recs []Record
	done chan struct{}
	err  error
}

// NewLog starts a group-commit log over s. reg, when non-nil, receives the
// group-commit metrics.
func NewLog(s Storage, reg *obs.Registry) *Log {
	l := &Log{s: s, kick: make(chan struct{}, 1), quit: make(chan struct{})}
	if reg != nil {
		l.obs = &logObs{
			appendNS:  reg.Histogram("wal_append_ns"),
			batchRecs: reg.Histogram("wal_batch_records"),
		}
		// Gauge, not counter: the mark resets at every snapshot.
		reg.GaugeFunc("wal_records_since_mark", l.appended.Load)
	}
	l.done.Add(1)
	go l.run()
	return l
}

// Append stages the records and blocks until they are durable (the driver
// Append covering them has returned). Records are frozen once passed in.
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	if l.closed.Load() {
		return ErrClosed
	}
	l.mu.Lock()
	b := l.cur
	if b == nil {
		b = &logBatch{done: make(chan struct{})}
		l.cur = b
	}
	b.recs = append(b.recs, recs...)
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	if l.closed.Load() {
		// The flusher may already have drained and exited; flush the
		// staged batch on this goroutine so we cannot block forever.
		l.drain()
	}
	<-b.done
	return b.err
}

func (l *Log) run() {
	defer l.done.Done()
	for {
		select {
		case <-l.kick:
			l.drain()
		case <-l.quit:
			l.drain() // staged batch racing Close
			return
		}
	}
}

func (l *Log) drain() {
	for {
		l.mu.Lock()
		b := l.cur
		l.cur = nil
		l.mu.Unlock()
		if b == nil {
			return
		}
		if ob := l.obs; ob != nil {
			start := time.Now()
			b.err = l.s.Append(b.recs)
			ob.appendNS.RecordSince(start)
			ob.batchRecs.Record(uint64(len(b.recs)))
		} else {
			b.err = l.s.Append(b.recs)
		}
		l.appended.Add(int64(len(b.recs)))
		close(b.done)
	}
}

// AppendedSinceMark returns the number of records flushed since the last
// ResetMark — the snapshot-cadence trigger.
func (l *Log) AppendedSinceMark() int64 { return l.appended.Load() }

// ResetMark zeroes the append counter (called after a snapshot).
func (l *Log) ResetMark() { l.appended.Store(0) }

// Snapshot forwards to the driver's Snapshot and resets the cadence mark.
func (l *Log) Snapshot(scan func(emit func(SnapObject) error) error) error {
	err := l.s.Snapshot(scan)
	if err == nil {
		l.ResetMark()
	}
	return err
}

// Close stops the flusher after draining staged batches. In-flight Append
// calls complete; later ones fail with ErrClosed.
func (l *Log) Close() {
	if l.closed.Swap(true) {
		return
	}
	close(l.quit)
	l.done.Wait()
}
