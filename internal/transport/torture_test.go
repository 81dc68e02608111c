package transport

import (
	"fmt"
	"testing"
	"time"

	"zeus/internal/netsim"
)

// TestReliableTortureLossSweep drives bidirectional traffic through the
// reliable transport at increasing loss rates (with duplication and jitter-
// induced reordering on top) and asserts the §3.1 contract exactly: every
// message delivered exactly once, in per-peer FIFO order, at every rate.
// Each rate's fault pattern is the seed's, the same run to run.
func TestReliableTortureLossSweep(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.20} {
		loss := loss
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			cfg := netsim.Config{
				Seed:       1234,
				MinLatency: 2 * time.Microsecond,
				MaxLatency: 60 * time.Microsecond,
				LossProb:   loss,
				DupProb:    loss / 2,
				InboxDepth: 1 << 14,
			}
			n := netsim.New(cfg)
			defer n.Close()
			rc := ReliableConfig{RTO: time.Millisecond}
			a := NewReliable(n.Endpoint(0), rc)
			b := NewReliable(n.Endpoint(1), rc)
			defer a.Close()
			defer b.Close()

			ca, cb := newCollect(), newCollect()
			a.SetHandler(ca.handler)
			b.SetHandler(cb.handler)

			const N = 1500
			go func() {
				for i := uint64(0); i < N; i++ {
					_ = a.Send(1, ping(i))
				}
			}()
			go func() {
				for i := uint64(0); i < N; i++ {
					_ = b.Send(0, ping(i))
				}
			}()
			cb.waitN(t, N, 30*time.Second)
			ca.waitN(t, N, 30*time.Second)

			check := func(name string, c *collect) {
				c.mu.Lock()
				defer c.mu.Unlock()
				if len(c.msgs) != N {
					t.Fatalf("%s: delivered %d, want exactly %d (no losses, no dups)", name, len(c.msgs), N)
				}
				for i, m := range c.msgs {
					if pingSeq(m) != uint64(i) {
						t.Fatalf("%s: out of order at %d: got %d", name, i, pingSeq(m))
					}
				}
			}
			check("a→b", cb)
			check("b→a", ca)

			st := n.Stats()
			t.Logf("loss=%.0f%%: fabric dropped %d / duplicated %d of %d frames "+
				"(%d msgs in %d data frames); timeout retransmits a=%d b=%d, "+
				"fast retransmits a=%d b=%d",
				loss*100, st.Lost, st.Duplicate, st.Sent,
				a.MessagesSent()+b.MessagesSent(), a.DataFramesSent()+b.DataFramesSent(),
				a.Retransmits(), b.Retransmits(), a.FastRetransmits(), b.FastRetransmits())
			// Batching shrinks the frame count, so the deterministic drop
			// pattern may spare one direction entirely; recovery machinery
			// must have fired somewhere once real frames were lost.
			recoveries := a.Retransmits() + a.FastRetransmits() + b.Retransmits() + b.FastRetransmits()
			if loss >= 0.05 && st.Lost > 0 && recoveries == 0 {
				t.Fatalf("no retransmissions at %.0f%% loss: recovery machinery inert", loss*100)
			}
			if drops := a.DecodeDrops() + b.DecodeDrops(); drops != 0 {
				t.Fatalf("decode drops = %d, want 0: delivered frames lost above the retransmission layer", drops)
			}
			if corrupt := a.CorruptFrames() + b.CorruptFrames(); corrupt != 0 {
				t.Fatalf("corrupt frames = %d, want 0", corrupt)
			}
		})
	}
}

// TestReliableAdaptiveRTORecoversTailLoss checks the timer path alone: a
// single frame lost with no follow-up traffic (no duplicate-ACK signal) must
// be recovered by the adaptive RTO well under the configured initial timer
// once the estimator has samples. (MinRTO is floored by the host's measured
// timer granularity — see ReliableConfig — so the initial RTO here is set
// comfortably above that floor to keep adapted-vs-initial distinguishable.)
func TestReliableAdaptiveRTORecoversTailLoss(t *testing.T) {
	cfg := netsim.Config{
		Seed:       5,
		MinLatency: 5 * time.Microsecond,
		MaxLatency: 20 * time.Microsecond,
		InboxDepth: 4096,
	}
	n := netsim.New(cfg)
	defer n.Close()
	rc := ReliableConfig{RTO: 20 * time.Millisecond, MinRTO: 100 * time.Microsecond}
	a := NewReliable(n.Endpoint(0), rc)
	b := NewReliable(n.Endpoint(1), rc)
	defer a.Close()
	defer b.Close()
	c := newCollect()
	b.SetHandler(c.handler)

	// Warm the estimator on a clean link, paced so RTT samples measure the
	// fabric rather than our own queue backlog.
	const warm = 100
	for i := uint64(0); i < warm; i++ {
		_ = a.Send(1, ping(i))
		time.Sleep(30 * time.Microsecond)
	}
	c.waitN(t, warm, 5*time.Second)

	// Drain the send window first: a frame queued behind leftover in-flight
	// traffic would ride the egress queue through the partition instead of
	// being lost on the wire.
	drainDeadline := time.Now().Add(2 * time.Second)
	for a.InFlight() > 0 {
		if time.Now().After(drainDeadline) {
			t.Fatal("send window never drained after warm-up")
		}
		time.Sleep(50 * time.Microsecond)
	}

	// Now lose exactly the next frame (tail loss: nothing follows it).
	n.Partition(0, 1)
	_ = a.Send(1, ping(warm))
	time.Sleep(50 * time.Microsecond)
	n.Heal(0, 1)

	start := time.Now()
	c.waitN(t, warm+1, 5*time.Second)
	elapsed := time.Since(start)
	t.Logf("tail loss recovered in %v (adapted RTO; initial was %v)", elapsed, rc.RTO)
	if elapsed >= rc.RTO {
		t.Fatalf("tail-loss recovery took %v, not faster than the initial %v RTO: estimator not engaged", elapsed, rc.RTO)
	}
	if a.Retransmits() == 0 {
		t.Fatal("tail loss must be recovered by a timeout retransmission")
	}
}

// TestReliableFastRetransmitFiresOnDupAcks checks the fast path: when later
// frames follow a lost one, duplicate ACKs must trigger recovery without
// waiting for the retransmission timer.
func TestReliableFastRetransmitFiresOnDupAcks(t *testing.T) {
	cfg := netsim.Config{
		Seed:       6,
		MinLatency: 5 * time.Microsecond,
		MaxLatency: 10 * time.Microsecond,
		InboxDepth: 4096,
	}
	n := netsim.New(cfg)
	defer n.Close()
	// A huge MinRTO disables the timer path; only fast retransmit can save
	// the lost frame within the test's deadline.
	rc := ReliableConfig{RTO: 2 * time.Second, MinRTO: 2 * time.Second, MaxRTO: 4 * time.Second}
	a := NewReliable(n.Endpoint(0), rc)
	b := NewReliable(n.Endpoint(1), rc)
	defer a.Close()
	defer b.Close()
	c := newCollect()
	b.SetHandler(c.handler)

	_ = a.Send(1, ping(0))
	c.waitN(t, 1, 5*time.Second)

	// Lose frame 1, then send 2..5 which arrive out of order and generate
	// duplicate ACKs.
	n.Partition(0, 1)
	_ = a.Send(1, ping(1))
	time.Sleep(100 * time.Microsecond)
	n.Heal(0, 1)
	for i := uint64(2); i <= 5; i++ {
		_ = a.Send(1, ping(i))
	}
	c.waitN(t, 6, 5*time.Second)
	if a.FastRetransmits() == 0 {
		t.Fatal("recovery happened without a fast retransmission (timer path was disabled)")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.msgs {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("out of order at %d: got %d", i, pingSeq(m))
		}
	}
}

// TestReliableAckCoalescingRatio drives a one-way burst over a perfect fabric
// and asserts the batching contract: messages coalesce into far fewer frames,
// the receiver's frame counter acks at most every AckEvery-th data frame, and
// nothing is lost or dropped in decode. The acks the clock decides — the
// flush timer's, an idle gap's quickack — and a jittered frame's re-ack are
// logged, not bounded: how many there are is how loaded the host is (a
// pure-ack:frame ratio bound failed 2 in 30 here, ROADMAP's flake rule).
func TestReliableAckCoalescingRatio(t *testing.T) {
	cfg := netsim.Config{
		Seed:       7,
		MinLatency: 5 * time.Microsecond,
		MaxLatency: 20 * time.Microsecond,
		InboxDepth: 1 << 14,
	}
	n := netsim.New(cfg)
	defer n.Close()
	rc := ReliableConfig{RTO: 2 * time.Millisecond}
	a := NewReliable(n.Endpoint(0), rc)
	b := NewReliable(n.Endpoint(1), rc)
	defer a.Close()
	defer b.Close()
	c := newCollect()
	b.SetHandler(c.handler)

	const N = 1500
	for i := uint64(0); i < N; i++ {
		_ = a.Send(1, ping(i))
	}
	a.Flush()
	c.waitN(t, N, 10*time.Second)

	c.mu.Lock()
	for i, m := range c.msgs {
		if pingSeq(m) != uint64(i) {
			c.mu.Unlock()
			t.Fatalf("out of order at %d: got %d", i, pingSeq(m))
		}
	}
	c.mu.Unlock()

	frames, acks, counted, msgs := a.DataFramesSent(), b.PureAcksSent(), b.CountedAcksSent(), a.MessagesSent()
	t.Logf("%d msgs in %d data frames (avg batch %.1f), %d pure acks (ratio %.2f), %d of them by the frame count",
		msgs, frames, float64(msgs)/float64(frames), acks, float64(acks)/float64(frames), counted)
	if msgs != N {
		t.Fatalf("messages sent = %d, want %d", msgs, N)
	}
	if frames >= N/2 {
		t.Fatalf("batching inert: %d frames for %d messages", frames, N)
	}
	if bound := frames/8 + 1; counted > bound { // AckEvery's default
		t.Fatalf("%d acks by the frame count for %d data frames, want at most %d (ack coalescing inert)", counted, frames, bound)
	}
	if drops := b.DecodeDrops(); drops != 0 {
		t.Fatalf("decode drops = %d, want 0", drops)
	}
}

// TestReliableFlushOnClose queues messages behind a deliberately tiny send
// window and closes the transport: Close must flush the egress queue onto the
// wire first, and everything must arrive in FIFO order.
func TestReliableFlushOnClose(t *testing.T) {
	cfg := netsim.Config{
		Seed:       8,
		MinLatency: 200 * time.Microsecond, // acks too slow to clock the queue out
		MaxLatency: 200 * time.Microsecond,
		InboxDepth: 4096,
	}
	n := netsim.New(cfg)
	defer n.Close()
	rc := ReliableConfig{RTO: 50 * time.Millisecond, WindowFrames: 1, FlushInterval: time.Hour}
	a := NewReliable(n.Endpoint(0), rc)
	b := NewReliable(n.Endpoint(1), rc)
	defer b.Close()
	c := newCollect()
	b.SetHandler(c.handler)

	const N = 10
	for i := uint64(0); i < N; i++ {
		if err := a.Send(1, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	// With WindowFrames=1 and no timer, messages 1..9 sit in the egress
	// queue; Close must push them out before shutting down.
	_ = a.Close()
	c.waitN(t, N, 5*time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.msgs {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("out of order at %d after flush-on-close: got %d", i, pingSeq(m))
		}
	}
	if err := a.Send(1, ping(99)); err == nil {
		t.Fatal("closed transport accepted a send")
	}
}

// TestReliableBatchLossRetransmitsAsUnit loses whole batch frames (every
// frame sent during a partition) and checks that the retransmission machinery
// recovers them as units, preserving FIFO order with no decode drops.
func TestReliableBatchLossRetransmitsAsUnit(t *testing.T) {
	cfg := netsim.Config{
		Seed:       9,
		MinLatency: 20 * time.Microsecond,
		MaxLatency: 50 * time.Microsecond,
		InboxDepth: 4096,
	}
	n := netsim.New(cfg)
	defer n.Close()
	rc := ReliableConfig{RTO: 1 * time.Millisecond, WindowFrames: 1}
	a := NewReliable(n.Endpoint(0), rc)
	b := NewReliable(n.Endpoint(1), rc)
	defer a.Close()
	defer b.Close()
	c := newCollect()
	b.SetHandler(c.handler)

	// Everything sent now is lost: the first message leaves immediately
	// (window open), the rest coalesce into batch frames behind it.
	n.Partition(0, 1)
	const N = 21
	for i := uint64(0); i < N; i++ {
		_ = a.Send(1, ping(i))
	}
	a.Flush()
	time.Sleep(200 * time.Microsecond)
	n.Heal(0, 1)

	c.waitN(t, N, 10*time.Second)
	c.mu.Lock()
	for i, m := range c.msgs {
		if pingSeq(m) != uint64(i) {
			c.mu.Unlock()
			t.Fatalf("out of order at %d after batch loss: got %d", i, pingSeq(m))
		}
	}
	c.mu.Unlock()
	if a.Retransmits() == 0 {
		t.Fatal("partition-dropped batches must be recovered by retransmission")
	}
	if frames := a.DataFramesSent(); frames > 6 {
		t.Fatalf("batching inert under loss: %d first-transmission frames for %d messages", frames, N)
	}
	if drops := b.DecodeDrops(); drops != 0 {
		t.Fatalf("decode drops = %d, want 0 (batch boundaries corrupted?)", drops)
	}
}

// TestReliableDelayedAckPreservesFastRetransmit disables every timer path
// (huge RTO, delayed-ack timer parked at an hour) and verifies that a hole
// is still recovered promptly: out-of-order frames must generate immediate
// duplicate acks — the delayed-ack machinery may never swallow them.
func TestReliableDelayedAckPreservesFastRetransmit(t *testing.T) {
	cfg := netsim.Config{
		Seed:       10,
		MinLatency: 5 * time.Microsecond,
		MaxLatency: 10 * time.Microsecond,
		InboxDepth: 4096,
	}
	n := netsim.New(cfg)
	defer n.Close()
	rc := ReliableConfig{
		RTO: 2 * time.Second, MinRTO: 2 * time.Second, MaxRTO: 4 * time.Second,
		FlushInterval: time.Hour, // delayed-ack/egress timer: never
		AckEvery:      1 << 20,   // count-triggered acks: never
	}
	a := NewReliable(n.Endpoint(0), rc)
	b := NewReliable(n.Endpoint(1), rc)
	defer a.Close()
	defer b.Close()
	c := newCollect()
	b.SetHandler(c.handler)

	_ = a.Send(1, ping(0))
	c.waitN(t, 1, 5*time.Second)

	// Lose frame 1, then send 2..5: they arrive out of order and must be
	// acked immediately (duplicate acks), triggering fast retransmit well
	// before the 2s RTO.
	n.Partition(0, 1)
	_ = a.Send(1, ping(1))
	time.Sleep(100 * time.Microsecond)
	n.Heal(0, 1)
	start := time.Now()
	for i := uint64(2); i <= 5; i++ {
		_ = a.Send(1, ping(i))
	}
	c.waitN(t, 6, 5*time.Second)
	elapsed := time.Since(start)
	if a.FastRetransmits() == 0 {
		t.Fatal("hole recovered without fast retransmission (all timers were disabled)")
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("recovery took %v: rode the RTO instead of duplicate acks", elapsed)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.msgs {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("out of order at %d: got %d", i, pingSeq(m))
		}
	}
}
