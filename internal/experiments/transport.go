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

// TransportResult is the transport-batching ablation: a one-way message
// stream over the reliable transport, whose frame batching and delayed acks
// are set against the per-message floor they remove, one data frame and one
// pure ack a message. The paper's messaging layer lives below every protocol
// number in §8, so frames-per-message and acks-per-frame are the constant
// factors Didona et al. argue dominate systems like this.
type TransportResult struct {
	Msgs uint64 // also the per-message floor's data frames and its pure acks

	BatchedFrames   uint64  // data frames
	BatchedAcks     uint64  // pure-ack frames
	BatchedCounted  uint64  // of them, sent because AckEvery frames were owed: the share no clock decides
	BatchedMsgsPerS float64 // delivered throughput
}

// Transport runs the batching ablation on a clean two-node fabric.
func Transport(s Scale) TransportResult {
	msgs := uint64(s.OpsPerWorker) * 25
	if msgs < 2000 {
		msgs = 2000
	}
	n := netsim.New(netsim.Config{
		Seed:       11,
		MinLatency: 5 * time.Microsecond,
		MaxLatency: 20 * time.Microsecond,
		InboxDepth: 1 << 15,
	})
	defer n.Close()
	rc := transport.ReliableConfig{RTO: 2 * time.Millisecond}
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
	return TransportResult{
		Msgs:            msgs,
		BatchedFrames:   a.DataFramesSent(),
		BatchedAcks:     b.PureAcksSent(),
		BatchedCounted:  b.CountedAcksSent(),
		BatchedMsgsPerS: float64(got.Load()) / elapsed.Seconds(),
	}
}

// Print renders the ablation.
func (r TransportResult) Print(w io.Writer) {
	printHeader(w, "Transport: frame batching + delayed acks vs the per-message floor")
	fmt.Fprintf(w, "  %-11s %7d msgs  %6d data frames (%.1f msg/frame)  %6d pure acks (%.2f ack/frame)  %s msg/s\n",
		"batched", r.Msgs, r.BatchedFrames, float64(r.Msgs)/float64(r.BatchedFrames), r.BatchedAcks,
		float64(r.BatchedAcks)/float64(r.BatchedFrames), fmtTps(r.BatchedMsgsPerS))
	fmt.Fprintf(w, "  %-11s %7d msgs  %6d data frames (1.0 msg/frame)  %6d pure acks (1.00 ack/frame)\n",
		"per-message", r.Msgs, r.Msgs, r.Msgs)
	fmt.Fprintf(w, "  frame reduction %.1fx, ack reduction %.1fx\n",
		float64(r.Msgs)/float64(r.BatchedFrames),
		float64(r.Msgs)/float64(max(r.BatchedAcks, 1)))
}
