package experiments

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"zeus/internal/netsim"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// TransportResult is the transport-batching ablation: the same one-way
// message stream over the lossy-capable reliable transport with batching and
// delayed acks on (the default) versus off (NoDelay, the pre-batching
// behaviour). The paper's messaging layer lives below every protocol number
// in §8, so frames-per-message and acks-per-frame are the constant factors
// Didona et al. argue dominate systems like this.
type TransportResult struct {
	Msgs uint64

	BatchedFrames   uint64  // data frames (batching on)
	BatchedAcks     uint64  // pure-ack frames (batching on)
	BatchedCounted  uint64  // of them, sent because AckEvery frames were owed: the share no clock decides
	BatchedMsgsPerS float64 // delivered throughput (batching on)

	NoDelayFrames   uint64
	NoDelayAcks     uint64
	NoDelayMsgsPerS float64
}

// Transport runs the batching ablation on a clean two-node fabric.
func Transport(s Scale) TransportResult {
	msgs := uint64(s.OpsPerWorker) * 25
	if msgs < 2000 {
		msgs = 2000
	}
	res := TransportResult{Msgs: msgs}
	run := func(noDelay bool) (frames, acks, counted uint64, rate float64) {
		n := netsim.New(netsim.Config{
			Seed:       11,
			MinLatency: 5 * time.Microsecond,
			MaxLatency: 20 * time.Microsecond,
			InboxDepth: 1 << 15,
		})
		defer n.Close()
		rc := transport.ReliableConfig{RTO: 2 * time.Millisecond, NoDelay: noDelay}
		a := transport.NewReliable(n.Endpoint(0), rc)
		b := transport.NewReliable(n.Endpoint(1), rc)
		defer a.Close()
		defer b.Close()
		done := make(chan struct{})
		var got atomic.Uint64
		b.SetHandler(func(wire.NodeID, wire.Msg) {
			if got.Add(1) == msgs {
				close(done)
			}
		})
		start := time.Now()
		for i := uint64(0); i < msgs; i++ {
			_ = a.Send(1, &wire.CommitVal{Tx: wire.TxID{Local: i}})
		}
		a.Flush()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
		}
		elapsed := time.Since(start)
		return a.DataFramesSent(), b.PureAcksSent(), b.CountedAcksSent(), float64(got.Load()) / elapsed.Seconds()
	}
	res.BatchedFrames, res.BatchedAcks, res.BatchedCounted, res.BatchedMsgsPerS = run(false)
	res.NoDelayFrames, res.NoDelayAcks, _, res.NoDelayMsgsPerS = run(true)
	return res
}

// Print renders the ablation.
func (r TransportResult) Print(w io.Writer) {
	printHeader(w, "Transport: frame batching + delayed acks vs per-message frames")
	row := func(name string, frames, acks uint64, rate float64) {
		fmt.Fprintf(w, "  %-10s %7d msgs  %6d data frames (%.1f msg/frame)  %6d pure acks (%.2f ack/frame)  %s msg/s\n",
			name, r.Msgs, frames, float64(r.Msgs)/float64(frames), acks,
			float64(acks)/float64(frames), fmtTps(rate))
	}
	row("batched", r.BatchedFrames, r.BatchedAcks, r.BatchedMsgsPerS)
	row("no-delay", r.NoDelayFrames, r.NoDelayAcks, r.NoDelayMsgsPerS)
	fmt.Fprintf(w, "  frame reduction %.1fx, ack reduction %.1fx\n",
		float64(r.NoDelayFrames)/float64(r.BatchedFrames),
		float64(r.NoDelayAcks)/float64(max(r.BatchedAcks, 1)))
}
