package viewsvc

import (
	"testing"
	"time"

	"zeus/internal/transport"
	"zeus/internal/wire"
)

// rig is a hub-backed ensemble plus a client for protocol-level tests.
type rig struct {
	hub *transport.Hub
	ens *Ensemble
	cli *Client
}

func newRig(t *testing.T, replicas int, members wire.Bitmap, cfg Config) *rig {
	t.Helper()
	hub := transport.NewHub()
	ids := ReplicaIDs(replicas)
	trs := make([]transport.Transport, len(ids))
	for i, id := range ids {
		trs[i] = hub.Node(id)
	}
	ens := StartEnsemble(cfg, ids, trs, members)
	cli := NewClient(cfg, hub.Node(ClientID), ids, members, nil)
	r := &rig{hub: hub, ens: ens, cli: cli}
	t.Cleanup(func() {
		cli.Close()
		ens.Close()
	})
	return r
}

// TestHeartbeatDerivesFromLease pins the derivation: Lease/2 clamped to
// [2ms, 25ms], and a takeover after six beats but no sooner than 10ms.
func TestHeartbeatDerivesFromLease(t *testing.T) {
	for _, tc := range []struct{ lease, beat, takeover time.Duration }{
		{time.Millisecond, 2 * time.Millisecond, 12 * time.Millisecond},
		{3 * time.Millisecond, 2 * time.Millisecond, 12 * time.Millisecond},
		{10 * time.Millisecond, 5 * time.Millisecond, 30 * time.Millisecond},
		{time.Second, 25 * time.Millisecond, 150 * time.Millisecond},
	} {
		c := Config{Lease: tc.lease}.withDefaults()
		if c.heartbeat != tc.beat || c.TakeoverAfter != tc.takeover {
			t.Errorf("lease %v: heartbeat %v, takeover %v; want %v, %v",
				tc.lease, c.heartbeat, c.TakeoverAfter, tc.beat, tc.takeover)
		}
	}
}

func TestQuorumCommitUpdatesClient(t *testing.T) {
	r := newRig(t, 3, wire.BitmapOf(0, 1, 2), Config{Lease: time.Millisecond})
	r.cli.Join(7)
	v := r.cli.View()
	if v.Epoch != 2 || !v.Live.Contains(7) {
		t.Fatalf("post-join view: %+v", v)
	}
	// Every replica converges on the committed state.
	deadline := time.Now().Add(time.Second)
	for i := 0; i < r.ens.Size(); i++ {
		for r.ens.Replica(i).State().Index != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never committed: %+v", i, r.ens.Replica(i).State())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func TestDuplicateProposalsCommitOnce(t *testing.T) {
	r := newRig(t, 3, wire.BitmapOf(0, 1, 2), Config{Lease: time.Millisecond})
	// Multicast the same join several times by hand: the leader must
	// deduplicate against state, queue and accepted entry.
	for i := 0; i < 5; i++ {
		_ = r.cli.tr.Multicast(r.cli.replicas, &wire.VSPropose{Cmd: wire.VSCommand{Op: wire.VSJoin, Node: 9}})
	}
	if !r.cli.WaitEpoch(2, time.Second) {
		t.Fatal("join never committed")
	}
	time.Sleep(5 * time.Millisecond)
	if e := r.cli.View().Epoch; e != 2 {
		t.Fatalf("duplicate proposals bumped epoch to %d", e)
	}
}

func TestFollowerCrashQuorumSurvives(t *testing.T) {
	r := newRig(t, 3, wire.BitmapOf(0, 1, 2), Config{Lease: time.Millisecond})
	r.hub.SetDown(r.ens.IDs()[2], true) // a follower, not the leader
	r.cli.Leave(2)
	v := r.cli.View()
	if v.Live.Contains(2) || v.Epoch != 2 {
		t.Fatalf("leave through 2/3 quorum failed: %+v", v)
	}
}

func TestLeaderCrashBallotTakeover(t *testing.T) {
	cfg := Config{Lease: time.Millisecond, heartbeat: time.Millisecond, TakeoverAfter: 5 * time.Millisecond}
	r := newRig(t, 3, wire.BitmapOf(0, 1, 2), cfg)
	if r.ens.LeaderIndex() != 0 {
		t.Fatalf("initial leader = %d, want 0", r.ens.LeaderIndex())
	}
	r.hub.SetDown(r.ens.IDs()[0], true)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if li := r.ens.LeaderIndex(); li > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no ballot takeover after leader crash")
		}
		time.Sleep(time.Millisecond)
	}
	// The new leader must make progress: commit a membership change.
	r.cli.Join(5)
	if v := r.cli.View(); !v.Live.Contains(5) {
		t.Fatalf("post-takeover join failed: %+v", v)
	}
	// Ballots are strictly above the old leadership.
	li := r.ens.LeaderIndex()
	if b := r.ens.Replica(li).Ballot(); b == 0 || int(b%3) != li {
		t.Fatalf("leader %d has inconsistent ballot %d", li, b)
	}
}

func TestBarrierAcrossTakeover(t *testing.T) {
	cfg := Config{Lease: time.Millisecond, heartbeat: time.Millisecond, TakeoverAfter: 5 * time.Millisecond}
	r := newRig(t, 3, wire.BitmapOf(0, 1, 2), cfg)
	r.cli.Fail(2)
	if !r.cli.WaitEpoch(2, time.Second) {
		t.Fatal("fail never committed")
	}
	if !r.cli.RecoveryPending() {
		t.Fatal("failure must open the recovery barrier")
	}
	// Leader dies while the barrier is open; reports must still close it
	// through the next leader.
	r.hub.SetDown(r.ens.IDs()[0], true)
	r.cli.ReportRecoveryDone(2, 0)
	r.cli.ReportRecoveryDone(2, 1)
	deadline := time.Now().Add(2 * time.Second)
	for r.cli.RecoveryPending() {
		if time.Now().After(deadline) {
			t.Fatal("barrier never closed after leader takeover")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPlacementRidesTheStateMachine pins the sharded-directory contract
// (§6.2): the placement map is part of the committed state, recomputed on
// every live-set change, and adopted across a ballot takeover like the rest
// of the state.
func TestPlacementRidesTheStateMachine(t *testing.T) {
	cfg := Config{Lease: time.Millisecond, heartbeat: time.Millisecond,
		TakeoverAfter: 5 * time.Millisecond, DirShards: 8}
	r := newRig(t, 3, wire.BitmapOf(0, 1, 2, 3), cfg)

	p := r.cli.State().Placement
	if len(p.Shards) != 8 || p.Epoch != 1 {
		t.Fatalf("initial placement: %d shards, epoch %d", len(p.Shards), p.Epoch)
	}
	want := wire.ComputePlacement(8, 3, 1, wire.BitmapOf(0, 1, 2, 3))
	for s := range p.Shards {
		if p.Shards[s] != want.Shards[s] {
			t.Fatalf("initial shard %d = %v, want %v", s, p.Shards[s], want.Shards[s])
		}
	}

	// A committed failure recomputes the placement with the view.
	r.cli.Fail(3)
	if !r.cli.WaitEpoch(2, time.Second) {
		t.Fatal("fail never committed")
	}
	p = r.cli.State().Placement
	if p.Epoch != 2 {
		t.Fatalf("placement epoch after fail: %d", p.Epoch)
	}
	for s, ds := range p.Shards {
		if ds.Contains(3) {
			t.Fatalf("shard %d still driven by failed node: %v", s, ds)
		}
		if ds != wire.BitmapOf(0, 1, 2) {
			t.Fatalf("shard %d drivers %v, want all three survivors", s, ds)
		}
	}

	// Placement survives a leader takeover (state transfer, no recompute
	// drift) and keeps evolving through the new leader.
	r.hub.SetDown(r.ens.IDs()[0], true)
	r.cli.Join(5)
	deadline := time.Now().Add(2 * time.Second)
	for r.cli.State().Placement.Epoch != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("placement never advanced through the new leader: %+v", r.cli.State().Placement)
		}
		time.Sleep(time.Millisecond)
	}
	p = r.cli.State().Placement
	joined := 0
	for _, ds := range p.Shards {
		if ds.Count() != 3 {
			t.Fatalf("shard degree broken after join: %v", ds)
		}
		if ds.Contains(5) {
			joined++
		}
	}
	if joined == 0 {
		t.Fatal("joined node drives no shards")
	}
}

func TestRenewalsLockFree(t *testing.T) {
	r := newRig(t, 3, wire.BitmapOf(0, 1, 2), Config{Lease: 50 * time.Millisecond})
	// Concurrent renewals from all nodes: must not race (run under -race)
	// and must reach the replicas' lease tables.
	done := make(chan struct{})
	for n := wire.NodeID(0); n < 3; n++ {
		go func(n wire.NodeID) {
			for i := 0; i < 100; i++ {
				r.cli.Renew(n)
			}
			done <- struct{}{}
		}(n)
	}
	for i := 0; i < 3; i++ {
		<-done
	}
}

// TestRenewalsAcrossThrottleWindows: a renewal inside the throttle window (a
// quarter lease after the last flush) is left to the sweeper, and one after
// it flushes inline against the last flush — both reach the replicas' lease
// tables, on a client built without observability, as most are.
func TestRenewalsAcrossThrottleWindows(t *testing.T) {
	r := newRig(t, 3, wire.BitmapOf(0, 1, 2), Config{Lease: 8 * time.Millisecond})
	table := &r.ens.Replica(0).renewals
	renewed := func(n wire.NodeID, since int64) {
		t.Helper()
		for deadline := time.Now().Add(time.Second); table[n].Load() <= since; {
			if time.Now().After(deadline) {
				t.Fatalf("node %d's renewal never reached the lease table", n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	before0, before1 := table[0].Load(), table[1].Load()
	r.cli.Renew(0) // the first renewal flushes inline
	r.cli.Renew(1) // inside the window: the sweeper sends it
	renewed(0, before0)
	renewed(1, before1)
	time.Sleep(4 * time.Millisecond) // past the 2 ms window
	before2 := table[2].Load()
	r.cli.Renew(2)
	renewed(2, before2)
}

// TestFailReportEndsAtTheRemovalItCaused: a failure report is driven by a
// loop that samples the cached state. A node that rejoins right after the
// removal — a restart a few milliseconds after the kill — is live again by the
// loop's next look; the report must be over all the same, not fail the new
// incarnation.
func TestFailReportEndsAtTheRemovalItCaused(t *testing.T) {
	r := newRig(t, 3, wire.BitmapOf(0, 1, 2, 3), Config{Lease: time.Millisecond})
	for round := wire.Epoch(0); round < 10; round++ {
		r.cli.Fail(3)
		if !r.cli.WaitEpoch(2+2*round, time.Second) {
			t.Fatal("fail never committed")
		}
		if !r.cli.Join(3) {
			t.Fatal("rejoin never committed")
		}
		time.Sleep(3 * r.cli.cfg.retryEvery()) // a lingering report would have re-proposed by now
		if v := r.cli.View(); v.Epoch != 3+2*round || !v.Live.Contains(3) {
			t.Fatalf("round %d: view %+v after fail and rejoin, want epoch %d with node 3 live", round, v, 3+2*round)
		}
	}
}

// TestStaleFailReportLeavesTheNewIncarnationLive: a restart is a new member.
// Node 3 fails and rejoins; a failure report about its previous incarnation
// that reaches the leader afterwards — a proposal delayed in the network, or
// re-sent by a reporter that had not seen the rejoin — must leave the node
// that rejoined live.
func TestStaleFailReportLeavesTheNewIncarnationLive(t *testing.T) {
	r := newRig(t, 3, wire.BitmapOf(0, 1, 2, 3), Config{Lease: time.Millisecond})
	r.cli.Fail(3)
	if !r.cli.WaitEpoch(2, time.Second) {
		t.Fatal("fail never committed")
	}
	if !r.cli.Join(3) {
		t.Fatal("rejoin never committed")
	}
	if s := r.cli.State(); s.JoinEpoch(3) != 3 || s.JoinEpoch(0) != 1 {
		t.Fatalf("join epochs %d (node 3) and %d (founder 0), want 3 (the rejoin's epoch) and 1", s.JoinEpoch(3), s.JoinEpoch(0))
	}
	stale := wire.VSCommand{Op: wire.VSFail, Node: 3, Epoch: 1} // the founder membership
	_ = r.cli.tr.Multicast(r.cli.replicas, &wire.VSPropose{Cmd: stale})
	transport.Flush(r.cli.tr)
	time.Sleep(10 * r.cli.cfg.retryEvery()) // well past the lease wait such a report sits out
	if v := r.cli.View(); v.Epoch != 3 || !v.Live.Contains(3) {
		t.Fatalf("view %+v after a report about node 3's previous incarnation, want epoch 3 with node 3 live", v)
	}
}
