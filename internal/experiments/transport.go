package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"zeus/internal/netsim"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// Transport is the transport-batching ablation, run on a clean two-node
// fabric: a one-way message stream over the reliable transport, whose frame
// batching and delayed acks are set against the per-message floor they
// remove, one data frame and one pure ack a message. The paper's messaging
// layer lives below every protocol number in §8, so frames-per-message and
// acks-per-frame are the constant factors Didona et al. argue dominate
// systems like this. Counted acks are those sent because AckEvery frames were
// owed: the share no clock decides.
func Transport(s Scale) Table {
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
	frames, acks := a.DataFramesSent(), b.PureAcksSent()
	t := Table{
		Title: "Transport: frame batching + delayed acks vs the per-message floor",
		Cols:  []string{"sends", "msgs", "data frames", "msgs/frame", "pure acks", "acks/frame", "counted acks", "msgs/s"},
		Notes: []string{fmt.Sprintf("frame reduction %.1fx, ack reduction %.1fx",
			ratio(float64(msgs), float64(frames)), float64(msgs)/float64(max(acks, 1)))},
	}
	t.add("batched", msgs, frames, ratio(float64(msgs), float64(frames)), acks, ratio(float64(acks), float64(frames)),
		b.CountedAcksSent(), float64(got.Load())/elapsed.Seconds())
	t.add("per-message", msgs, msgs, 1.0, msgs, 1.0, msgs, "—")
	return t
}
