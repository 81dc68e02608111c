package transport

import (
	"zeus/internal/obs"
)

// RegisterObs exposes the reliable layer's counters through a registry. Pure
// pull-scrape: every quantity already exists as an engine atomic, so the
// frame hot path is untouched — the callbacks read at render time only.
func (r *Reliable) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("tr_msgs_sent_total", r.MessagesSent)
	reg.CounterFunc("tr_data_frames_total", r.DataFramesSent)
	reg.CounterFunc("tr_pure_acks_total", r.PureAcksSent)
	reg.CounterFunc("tr_retransmits_total", r.Retransmits)
	reg.CounterFunc("tr_fast_retransmits_total", r.FastRetransmits)
	reg.CounterFunc("tr_decode_drops_total", r.DecodeDrops)
	reg.CounterFunc("tr_corrupt_frames_total", r.CorruptFrames)
	reg.CounterFunc("tr_send_errors_total", r.SendErrors)
	reg.GaugeFunc("tr_inflight_frames", func() int64 { return int64(r.InFlight()) })
	reg.GaugeFunc("tr_rto_max_ns", func() int64 { return int64(r.MaxRTO()) })
}

// MaxRTO returns the largest current adaptive retransmission timeout across
// peers (0 with no peers): the worst link this node is speaking over.
func (r *Reliable) MaxRTO() int64 {
	var max int64
	for _, p := range r.snapshotPeers() {
		p.sendMu.Lock()
		rto := int64(p.est.RTO())
		p.sendMu.Unlock()
		if rto > max {
			max = rto
		}
	}
	return max
}

// RegisterObs exposes the TCP fabric's counters through a registry, pull-
// scraped like the reliable layer's. tcp_msgs_sent_total over
// tcp_writes_total is the average outbound batch; tcp_reads_total counts the
// inbound socket drains.
func (t *TCP) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("tcp_msgs_sent_total", t.MessagesSent)
	reg.CounterFunc("tcp_bytes_sent_total", t.BytesSent)
	reg.CounterFunc("tcp_writes_total", t.Writes)
	reg.CounterFunc("tcp_reads_total", t.Reads)
	reg.CounterFunc("tcp_decode_drops_total", t.DecodeDrops)
}
