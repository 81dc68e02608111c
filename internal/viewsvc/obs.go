package viewsvc

import (
	"time"

	"zeus/internal/obs"
)

// clientObs caches the view-service client's metric handles (resolved once
// at construction — see commit.engineObs for the discipline).
type clientObs struct {
	reg *obs.Registry

	// epochChanges counts installed view changes; barrierNS is the
	// recovery-barrier duration (epoch bump with removed nodes → barrier
	// cleared) — the paper's "recovery pause" made measurable.
	epochChanges *obs.Counter
	barrierNS    *obs.Histogram
	// renewLagNS is the gap between consecutive lease-renewal multicasts;
	// a lag approaching the lease is a node about to be suspected.
	renewLagNS *obs.Histogram

	// barrierStart is touched only from the pump goroutine (state installs
	// are serialized there), so it needs no lock.
	barrierStart time.Time
}

func newClientObs(c *Client, r *obs.Registry) *clientObs {
	r.GaugeFunc("vs_epoch", func() int64 { return int64(c.View().Epoch) })
	r.GaugeFunc("vs_live_nodes", func() int64 { return int64(c.View().Live.Count()) })
	return &clientObs{
		reg:          r,
		epochChanges: r.Counter("vs_epoch_changes_total"),
		barrierNS:    r.Histogram("vs_barrier_ns"),
		renewLagNS:   r.Histogram("vs_renew_lag_ns"),
	}
}
