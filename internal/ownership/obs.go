package ownership

import (
	"fmt"
	"strings"

	"zeus/internal/obs"
	"zeus/internal/wire"
)

// nackReasonCount sizes the per-reason NACK counter family (the reasons are
// a compact enum ending at NackUnbacked).
const nackReasonCount = int(wire.NackUnbacked) + 1

// engineObs is the ownership engine's cached observability bundle (see
// commit.engineObs): handles resolved once in New, record sites pay
// a nil check plus an atomic.
type engineObs struct {
	reg *obs.Registry

	// acquireNS is the successful Acquire latency (REQ to final ACK across
	// retries — the metric of the paper's Figure 12).
	acquireNS *obs.Histogram
	// nacks counts NACKs received by this requester, indexed by
	// wire.NackReason — the breakdown that tells a pending-commit stall
	// from directory contention.
	nacks [nackReasonCount]*obs.Counter
	// migrations counts successful acquisitions per directory shard: the
	// per-shard heat signal load-aware placement (Lion, PAPERS.md) needs.
	migrations []*obs.Counter
}

// newEngineObs resolves the engine's handles in r. The per-reason and
// per-shard counter families have computed names; they register here, once,
// never on the record path.
func newEngineObs(e *Engine, r *obs.Registry) *engineObs {
	b := &engineObs{reg: r, acquireNS: r.Histogram("own_acquire_ns")}
	for i := range b.nacks {
		name := strings.ReplaceAll(wire.NackReason(i).String(), "-", "_")
		b.nacks[i] = r.Counter(fmt.Sprintf("own_nack_%s_total", name))
	}
	b.migrations = make([]*obs.Counter, e.dir.Shards())
	for s := range b.migrations {
		b.migrations[s] = r.Counter(fmt.Sprintf("own_migrations_shard%d_total", s))
	}
	r.CounterFunc("own_requests_total", e.stRequests.Load)
	r.CounterFunc("own_succeeded_total", e.stSucceeded.Load)
	r.CounterFunc("own_nacks_sent_total", e.stNacks.Load)
	r.CounterFunc("own_timeouts_total", e.stTimeouts.Load)
	r.CounterFunc("own_replays_total", e.stReplays.Load)
	return b
}
