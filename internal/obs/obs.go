// Package obs is the engine's observability subsystem: per-node metrics
// (counters, gauges, log-linear histograms), opt-in per-transaction traces
// and a structured incident log, all stdlib-only and allocation-free on the
// record path.
//
// A deployment opts in by handing each engine's constructor a Registry
// (commit.Config.Obs, ownership.Config.Obs, storage.NewLog,
// viewsvc.NewClient), and every record site is gated on a nil check of the
// handle bundle the constructor built from it, so disabled deployments keep
// the seed hot path bit for bit. Engines cache the metric handles they record into — the
// Registry's name→metric maps are touched at registration time only, never
// per event. Tests hold both disciplines: every tier-1 test that runs with
// observability off panics on a record site without its nil check, and
// TestAllocCeilings' observability-on rows fail on an allocation per event.
//
// Counters that already exist as engine atomics are not double-counted:
// CounterFunc/GaugeFunc register a read callback that pull-scrapes the
// source at render time, so the hot path is untouched. Only quantities that
// do not exist otherwise (phase latencies, batch sizes) pay an atomic on the
// record path.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready;
// handles are cached at wiring time and recorded into lock-free.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a point-in-time int64 (lag, depth, size).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram buckets: log-linear with 4 sub-buckets per power of two
// (histSubBits = 2), exact below 4. Relative error ≤ 1/4 across the whole
// uint64 range — enough to separate a 10 µs commit from a 14 µs one at any
// magnitude — in a fixed 252-slot array of independent atomics.
const (
	histSubBits = 2
	histSubs    = 1 << histSubBits
	// NumBuckets is the bucket count: histSubs exact low buckets plus
	// histSubs per octave for exponents histSubBits..63.
	NumBuckets = histSubs + (64-histSubBits)*histSubs // 252
)

// histStripe is one stripe of the histogram's count/sum hot words, padded to
// its own cache line so concurrent recorders on different stripes never
// false-share.
type histStripe struct {
	count atomic.Uint64
	sum   atomic.Uint64
	_     [48]byte
}

// Histogram is a lock-free log-linear histogram. Record is wait-free and
// allocation-free: one atomic add into the value's bucket plus one into a
// count/sum stripe selected by hashing the value ("per-CPU-ish" striping —
// Go exposes no CPU id, so the hash spreads concurrent recorders across
// cache lines statistically instead of exactly). Latencies are recorded in
// nanoseconds via RecordSince, so record sites never split a time.Now()
// pair across locks.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	stripes [8]histStripe
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSubs {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= histSubBits
	sub := (v >> (uint(exp) - histSubBits)) & (histSubs - 1)
	return (exp-1)*histSubs + int(sub)
}

// BucketUpper returns the inclusive upper bound of bucket i (the value a
// quantile estimate reports for samples landing in it).
func BucketUpper(i int) uint64 {
	if i < histSubs {
		return uint64(i)
	}
	exp := uint(i/histSubs + 1)
	sub := uint64(i % histSubs)
	lower := uint64(1)<<exp + sub<<(exp-histSubBits)
	return lower + uint64(1)<<(exp-histSubBits) - 1
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	s := &h.stripes[(v*0x9E3779B97F4A7C15)>>61]
	s.count.Add(1)
	s.sum.Add(v)
}

// RecordSince records the elapsed nanoseconds since start. This is the
// sanctioned shape for latency record sites: the site stamps start once
// (gated on the obs nil check) and hands it here, instead of carrying a
// time.Now() pair across locks.
func (h *Histogram) RecordSince(start time.Time) {
	h.Record(uint64(time.Since(start)))
}

// HistSnapshot is a point-in-time copy of a histogram. Concurrent records
// may make Count disagree with the bucket sum by in-flight samples.
type HistSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     uint64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	for i := range h.stripes {
		s.Count += h.stripes[i].count.Load()
		s.Sum += h.stripes[i].sum.Load()
	}
	return s
}

// Merge folds o into s (cross-node aggregation).
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Max returns the upper bound of the highest non-empty bucket (0 for an
// empty histogram) — the histogram's max-sample estimate, within the
// bucketing's ≤1/4 relative error.
func (s *HistSnapshot) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 {
			return BucketUpper(i)
		}
	}
	return 0
}

// Quantile returns the value at quantile q in [0, 1] (bucket upper bound; 0
// for an empty histogram).
func (s *HistSnapshot) Quantile(q float64) uint64 {
	total := uint64(0)
	for i := range s.Buckets {
		total += s.Buckets[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	cum := uint64(0)
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum > rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Registry is one node's metric namespace. Metric lookup takes a mutex and
// may allocate — it runs at wiring time; engines cache the returned handles
// and record into them lock-free. The zero Registry is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cfuncs   map[string]func() uint64
	gfuncs   map[string]func() int64

	// Traces captures the slowest sampled transactions per window;
	// Incidents is the watchdog's structured incident log. Both are always
	// present on a NewRegistry.
	Traces    *TraceTable
	Incidents *IncidentLog
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		cfuncs:    make(map[string]func() uint64),
		gfuncs:    make(map[string]func() int64),
		Traces:    NewTraceTable(),
		Incidents: &IncidentLog{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers a counter whose value is read from fn at render
// time: the pull-scrape bridge for quantities that already exist as engine
// atomics (commit/ownership stats, transport counters), so enabling obs
// never double-counts a hot path.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.mu.Lock()
	r.cfuncs[name] = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge read from fn at render time (safe-time lag,
// applied watermark, pipeline depth).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.gfuncs[name] = fn
	r.mu.Unlock()
}

// CounterValue reads the named counter — direct or func-registered — and
// reports whether it exists (test and tooling accessor; does not create).
func (r *Registry) CounterValue(name string) (uint64, bool) {
	r.mu.Lock()
	c := r.counters[name]
	fn := r.cfuncs[name]
	r.mu.Unlock()
	switch {
	case c != nil:
		return c.Load(), true
	case fn != nil:
		return fn(), true
	}
	return 0, false
}

// Counters returns a name→value snapshot of every counter, direct and
// func-registered (render-time accessor: the load harness folds per-node
// registries into its run summary — retransmits, NACK reasons — without
// naming each counter up front).
func (r *Registry) Counters() map[string]uint64 {
	r.mu.Lock()
	out := make(map[string]uint64, len(r.counters)+len(r.cfuncs))
	fns := make(map[string]func() uint64, len(r.cfuncs))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	for name, fn := range r.cfuncs {
		fns[name] = fn
	}
	r.mu.Unlock()
	// Pull-scraped counters read their sources outside the registry lock.
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// HistogramSnapshot returns a snapshot of the named histogram and whether it
// exists (test and tooling accessor; does not create).
func (r *Registry) HistogramSnapshot(name string) (HistSnapshot, bool) {
	r.mu.Lock()
	h := r.hists[name]
	r.mu.Unlock()
	if h == nil {
		return HistSnapshot{}, false
	}
	return h.Snapshot(), true
}

// WriteText renders every metric as "name value" lines sorted by name —
// grep-friendly for smoke tests and zeusctl. Histograms expand to
// name_count, name_sum and p50/p99/p999 upper bounds (nanoseconds for
// latency histograms).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	type entry struct {
		name string
		val  string
	}
	entries := make([]entry, 0, len(r.counters)+len(r.gauges)+len(r.cfuncs)+len(r.gfuncs)+5*len(r.hists))
	for name, c := range r.counters {
		entries = append(entries, entry{name, fmt.Sprintf("%d", c.Load())})
	}
	for name, g := range r.gauges {
		entries = append(entries, entry{name, fmt.Sprintf("%d", g.Load())})
	}
	for name, fn := range r.cfuncs {
		entries = append(entries, entry{name, fmt.Sprintf("%d", fn())})
	}
	for name, fn := range r.gfuncs {
		entries = append(entries, entry{name, fmt.Sprintf("%d", fn())})
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		entries = append(entries,
			entry{name + "_count", fmt.Sprintf("%d", s.Count)},
			entry{name + "_sum", fmt.Sprintf("%d", s.Sum)},
			entry{name + "_p50", fmt.Sprintf("%d", s.Quantile(0.50))},
			entry{name + "_p99", fmt.Sprintf("%d", s.Quantile(0.99))},
			entry{name + "_p999", fmt.Sprintf("%d", s.Quantile(0.999))},
		)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		if _, err := fmt.Fprintf(w, "%s %s\n", e.name, e.val); err != nil {
			return err
		}
	}
	return nil
}
