package main

import (
	"math"
	"runtime/metrics"
	"slices"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

func us(ns float64) float64 { return ns / 1e3 }

// endToEnd derives the gated end-to-end metrics of an untraced run, in the
// order they print. BENCHMARK.json carries the same names with their
// direction and bound.
func endToEnd(r *runResult) []metric {
	return []metric{
		{"allocs_per_op", "1", float64(r.b.mallocs-r.a.mallocs) / float64(r.ops())},
		{"heap_mb", "MB", float64(r.heapBytes) / 1e6},
		// The fastest of the run's set-ups: whatever else the host is doing
		// only ever adds time.
		{"setup_s", "s", slices.Min(r.setup).Seconds()},
	}
}

// timing derives what a caller sees of the clock, as medians over every
// step-th window from window 0 on: all windows of an untraced run, the
// untraced (even) ones of a traced run. These four do not repeat within 10 %
// on a shared host and gate nothing (README.md, "Why the clock gates
// nothing"); they are printed by both kinds of run.
func timing(r *runResult, step int) []metric {
	n := r.cfg.windows
	return []metric{
		{"tps", "1/s", r.overWindows(0, n, step, r.windowTPS)},
		{"lat_p50_us", "us", us(r.overWindows(0, n, step, func(i int) float64 { return r.win[i].quantile(0.50) }))},
		{"lat_p99_us", "us", us(r.overWindows(0, n, step, func(i int) float64 { return r.win[i].quantile(0.99) }))},
		{"cpu_us_per_op", "us", r.overWindows(0, n, step, r.windowCPUPerOp)},
	}
}

// heapObjectsAllocated is the cumulative count of heap objects allocated by
// the process, tiny ones included: runtime.MemStats.Mallocs, read without
// stopping the world.
func heapObjectsAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// runtimeSample is the part of runtime/metrics the per-layer list reports.
type runtimeSample struct {
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
	allocBytes uint64
	schedLat   *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCycles:   s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(),
		schedLat:   s[4].Value.Float64Histogram(),
	}
}

// schedLatQuantile returns the q-quantile, in seconds, of the goroutine
// scheduling latencies recorded between two samples (upper bucket edge).
func schedLatQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= rank {
			if up := b.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return b.Buckets[i]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// perLayer derives the per-layer metrics of a traced run. The ladder's
// figures are passed in: they are measured before load, once per process.
func perLayer(r *runResult, lad ladder) ([]metric, budget) {
	t := r.cfg.tracer
	ops := float64(r.ops())
	per := func(d uint64) float64 { return float64(d) / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Span aggregates over both clients (traced windows only).
	var traced, attempts, loopLat, roTx float64
	var classOps [numClasses]float64
	var self [numClasses][numSpanKinds]float64
	var lag hist
	for _, ct := range t.clients {
		traced += float64(ct.ops)
		attempts += float64(ct.attempts)
		loopLat += float64(ct.loopLat)
		roTx += float64(ct.roTx)
		for c := range ct.self {
			classOps[c] += float64(ct.classOps[c])
			for k := range ct.self[c] {
				self[c][k] += float64(ct.self[c][k])
			}
		}
		lag.merge(&ct.lag)
	}
	kindSum := func(k spanKind) float64 { return self[classNone][k] + self[classWrite][k] + self[classRO][k] }
	opSelf := kindSum(spOp)
	writeMean := func(k spanKind) float64 { return us(ratio(self[classWrite][k], classOps[classWrite])) }

	// Tracing overhead: odd windows are traced, even ones are not.
	n := r.cfg.windows
	onTPS, offTPS := r.overWindows(1, n, 2, r.windowTPS), r.overWindows(0, n, 2, r.windowTPS)

	bud := budget{
		traced:  traced,
		meanLat: us(ratio(loopLat, traced)),
		rows: []budgetRow{
			{"bench (generator, txn body)", us(ratio(opSelf+kindSum(spAttempt), traced))},
			{"dbapi (retry back-off)", us(ratio(kindSum(spRun), traced))},
			{"core.begin", us(ratio(kindSum(spBegin), traced))},
			{"core.get", us(ratio(kindSum(spGet), traced))},
			{"core.set", us(ratio(kindSum(spSet), traced))},
			{"core.commit", us(ratio(kindSum(spCommit)+kindSum(spAbort), traced))},
		},
	}
	var covered float64
	for _, row := range bud.rows {
		covered += row.us
	}
	bud.rows = append(bud.rows, budgetRow{"outside spans (tracer bookkeeping)", bud.meanLat - covered})

	ra, rb := r.a.runtime, r.b.runtime
	moves := r.b.moves - r.a.moves
	m := append(timing(r, 2), []metric{
		{"bench.op_self_us", "us", us(ratio(opSelf, traced))},
		{"dbapi.attempts_per_op", "1", ratio(attempts, classOps[classWrite]+classOps[classRO])},
		{"dbapi.backoff_us_per_op", "us", us(ratio(kindSum(spRun), traced))},
		{"core.begin_us", "us", writeMean(spBegin)},
		{"core.get_us", "us", writeMean(spGet)},
		{"core.set_us", "us", writeMean(spSet)},
		{"core.commit_us", "us", writeMean(spCommit)},
		{"core.ro_tx_us", "us", us(ratio(roTx, classOps[classRO]))},
		{"core.aborts_per_op", "1", per(r.b.aborts - r.a.aborts)},
		{"commit.durable_lag_us_p50", "us", us(lag.quantile(0.50))},
		{"commit.durable_lag_us_p99", "us", us(lag.quantile(0.99))},
		{"commit.invals_per_op", "1", per(r.b.invals - r.a.invals)},
		{"commit.bytes_per_op", "B", per(r.b.cmtBytes - r.a.cmtBytes)},
		{"commit.resends_per_op", "1", per(r.b.resends - r.a.resends)},
		{"commit.open_slots_max", "count", float64(r.openSlots)},
		{"ownership.moves_per_op", "1", per(moves)},
		{"ownership.acquire_us_p50", "us", us(t.acquire.quantile(0.50))},
		{"ownership.acquire_us_p99", "us", us(t.acquire.quantile(0.99))},
		{"ownership.nacks_per_req", "1", ratio(float64(r.b.ownNacks-r.a.ownNacks), float64(r.b.ownReqs-r.a.ownReqs))},
		{"ownership.timeouts", "count", float64(r.b.ownTimeouts - r.a.ownTimeouts)},
		{"ownership.bulk_move_per_s", "1/s", lad.bulkMovePerS},
		{"directory.shards", "count", float64(r.dirShards)},
		{"transport.msgs_per_op", "1", per(r.b.msgs - r.a.msgs)},
		{"transport.bytes_per_op", "B", per(r.b.netBytes - r.a.netBytes)},
		{"transport.hub_rtt_us", "us", lad.hubRTTus},
		{"transport.tcp_rtt_us", "us", lad.tcpRTTus},
		{"transport.reliable_rtt_us", "us", lad.reliableRTTus},
		{"wire.commitinv_codec_ns", "ns", lad.codecNS},
		{"wire.commitinv_allocs", "1", lad.codecAllocs},
		{"store.get_ns", "ns", lad.storeGetNS},
		{"store.objects", "count", float64(r.objects)},
		{"runtime.gc_cycles", "count", float64(rb.gcCycles - ra.gcCycles)},
		{"runtime.gc_cpu_frac", "1", ratio(rb.gcCPU-ra.gcCPU, rb.totalCPU-ra.totalCPU)},
		{"runtime.alloc_bytes_per_op", "B", per(rb.allocBytes - ra.allocBytes)},
		{"runtime.sched_lat_p99_us", "us", schedLatQuantile(ra.schedLat, rb.schedLat, 0.99) * 1e6},
		{"runtime.goroutines", "count", float64(r.goroutines)},
		{"client.lat_p999_us", "us", us(r.all.quantile(0.999))},
		{"client.lat_max_us", "us", us(float64(r.all.max))},
		{"viewsvc.epoch_changes", "count", float64(r.b.epoch - r.a.epoch)},
		{"trace.overhead_frac", "1", 1 - ratio(onTPS, offTPS)},
		{"trace.coverage_frac", "1", ratio(covered, bud.meanLat)},
	}...)
	bud.acquireUS = us(t.acquire.mean()) * per(moves)
	bud.cpuUS = float64((r.b.cpu - r.a.cpu).Microseconds()) / ops
	return m, bud
}

// budget is the per-workload table the traced run ends with: where the mean
// op latency goes, layer by layer, the rows summing to the whole.
type budget struct {
	traced  float64 // ops the rows average over
	meanLat float64 // us, as the client loop measured the traced ops
	rows    []budgetRow
	// Not rows of the sum, but what they are set against: ownership time
	// is spent inside core.get/core.set, and the process burns CPU for an
	// op on followers and handlers that the client never waits for.
	acquireUS float64
	cpuUS     float64
}

type budgetRow struct {
	layer string
	us    float64
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method): the
// spread the benchmark's contract is judged by.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
