package commit

import (
	"fmt"
	"time"

	"zeus/internal/obs"
	"zeus/internal/wire"
)

// engineObs is the commit engine's cached observability bundle: every handle
// the hot path records into is resolved once here (in New), so record
// sites are a nil check plus an atomic — no registry lookup, no allocation
// (TestAllocCeilings' observability-on rows; the nil checks are exercised by
// every test that runs with observability off).
type engineObs struct {
	reg *obs.Registry

	// ackNS is the slot-open → fully-acked latency (the replication round
	// trip the paper's §5.2 pipeline hides from the application); appliedNS
	// extends it through local validation and the R-VAL
	// fan-out — the full open→acked→validated→applied phase chain.
	ackNS     *obs.Histogram
	appliedNS *obs.Histogram
	// fanout counts R-INVs enqueued to followers (per-follower, so the
	// ratio to committed transactions is the effective replication degree).
	fanout *obs.Counter
}

// newEngineObs resolves the engine's handles in r. Quantities the engine
// already counts in its st* atomics are pull-scraped via CounterFunc — never
// double-counted on the hot path.
func newEngineObs(e *Engine, r *obs.Registry) *engineObs {
	b := &engineObs{
		reg:       r,
		ackNS:     r.Histogram("cmt_ack_ns"),
		appliedNS: r.Histogram("cmt_applied_ns"),
		fanout:    r.Counter("cmt_rinv_fanout_total"),
	}
	r.CounterFunc("cmt_committed_total", e.stCommitted.Load)
	r.CounterFunc("cmt_invals_total", e.stInvals.Load)
	r.CounterFunc("cmt_replays_total", e.stReplays.Load)
	r.CounterFunc("cmt_resends_total", e.stResends.Load)
	r.CounterFunc("cmt_bytes_total", e.stBytes.Load)
	r.GaugeFunc("cmt_open_slots", func() int64 { return int64(e.PendingSlots()) })
	r.GaugeFunc("cmt_pending_replays", func() int64 { return int64(e.PendingReplays()) })
	return b
}

// ---------------------------------------------------------------------------
// Watchdog: the in-flight promotion of DumpState.
// ---------------------------------------------------------------------------

// StartWatchdog arms the slot-age scanner: any coordinator slot (own, or a
// dead coordinator's adopted for replay) or stored R-INV (pending-commit debt
// at a follower) older than age emits ONE structured incident into the
// registry's IncidentLog, with the engine state DumpState would show
// post-mortem — so a wedge in the CI race gate self-diagnoses while it is
// still observable. Requires
// Config.Obs; returns false if observability is off or age is zero. The scanner stops
// with the engine (Close).
func (e *Engine) StartWatchdog(age time.Duration) bool {
	if e.obs == nil || age <= 0 {
		return false
	}
	go e.watchdogLoop(age)
	return true
}

// watchdogLoop scans at a quarter of the age threshold (clamped to [1ms,1s])
// and fires once per offender: an offender already reported is skipped while
// it persists and forgotten once it resolves, so a genuinely new wedge on
// the same slot refires.
func (e *Engine) watchdogLoop(age time.Duration) {
	tick := age / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	reported := make(map[string]bool)
	t := time.NewTimer(tick)
	defer t.Stop()
	for {
		select {
		case <-e.closed:
			return
		case <-t.C:
		}
		e.watchdogScan(time.Now(), age, reported)
		t.Reset(tick)
	}
}

// watchdogScan is one pass over the engine's debt surface. Split out for the
// fires-once test, which drives scans directly instead of waiting on the
// timer.
func (e *Engine) watchdogScan(now time.Time, age time.Duration, reported map[string]bool) {
	log := e.obs.reg.Incidents
	epoch := e.agent.Epoch()
	alive := make(map[string]bool)

	report := func(key, kind, detail string) {
		alive[key] = true
		if reported[key] {
			return
		}
		reported[key] = true
		log.Report(kind, detail)
	}

	e.eachPipe(func(p *outPipe) {
		key, kind := "slot:%v", "open-slot"
		if p.adopted {
			key, kind = "replay:%v", "replay-stuck"
		}
		p.mu.Lock()
		for _, s := range p.slots {
			if s.valed || now.Sub(s.openedAt) < age {
				continue
			}
			report(fmt.Sprintf(key, s.Tx()), kind,
				fmt.Sprintf("tx=%v age=%s followers=%v acked=%v epoch=%d updates=%d",
					s.Tx(), now.Sub(s.openedAt).Round(time.Millisecond),
					s.followers.Nodes(), s.acked.Nodes(), epoch, len(s.inv.Updates)))
		}
		p.mu.Unlock()
	})

	// Stored R-INV debt ages from when THIS scanner first saw it (wdSeen is
	// scan-owned — the apply/validate hot paths never stamp anything), so a
	// stored slot must survive at least two scan ticks plus the threshold
	// before it fires. Resolved entries are swept here too.
	e.inPipes.Range(func(id wire.PipeID, p *inPipe) bool {
		p.mu.Lock()
		for local := range p.wdSeen {
			if p.stored[local] == nil {
				delete(p.wdSeen, local) // resolved debt; drop the stamp
			}
		}
		for local, inv := range p.stored {
			at, ok := p.wdSeen[local]
			if !ok {
				if p.wdSeen == nil {
					p.wdSeen = make(map[uint64]time.Time)
				}
				p.wdSeen[local] = now
				continue
			}
			if now.Sub(at) < age {
				continue
			}
			report(fmt.Sprintf("stored:%v/%d", id, local), "stored-rinv",
				fmt.Sprintf("coord=%d worker=%d local=%d age=%s watermark=%d epoch=%d invEpoch=%d replay=%v",
					id.Node, id.Worker, local, now.Sub(at).Round(time.Millisecond),
					p.watermark, epoch, inv.Epoch, inv.Replay))
		}
		p.mu.Unlock()
		return true
	})

	// Forget resolved offenders so a later wedge on the same key refires.
	for key := range reported {
		if !alive[key] {
			delete(reported, key)
		}
	}
}
