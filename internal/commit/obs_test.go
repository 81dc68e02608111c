package commit

import (
	"testing"
	"time"

	"zeus/internal/obs"
	"zeus/internal/wire"
)

// TestWatchdogFiresOncePerOffender wedges a replication slot (follower
// unreachable), drives watchdog scans directly and checks the dedup
// contract: one incident per offender while it persists, forgotten once it
// resolves, and a fresh wedge fires again.
func TestWatchdogFiresOncePerOffender(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestClusterWith(t, 3, onNode(0, Config{Obs: reg}))
	eng := c.nodes[0].eng
	c.seedObject(1, 0, wire.BitmapOf(1, 2))

	c.hub.SetDown(1, true) // follower 1 cannot ack: the slot wedges open
	_, done := c.localWrite(0, 0, []wire.ObjectID{1}, "wedged")

	const age = 10 * time.Millisecond
	reported := make(map[string]bool)
	future := time.Now().Add(time.Hour) // every stamp is long past the threshold
	eng.watchdogScan(future, age, reported)
	eng.watchdogScan(future, age, reported)
	if n := reg.Incidents.Total(); n != 1 {
		t.Fatalf("wedged slot raised %d incidents across two scans, want exactly 1: %+v",
			n, reg.Incidents.Recent())
	}
	if k := reg.Incidents.Recent()[0].Kind; k != "open-slot" {
		t.Fatalf("incident kind = %q, want open-slot", k)
	}

	// Resolve the wedge the way the protocol does: declare the silent
	// follower failed; the view change re-evaluates completeness against the
	// live set and the slot validates. The next scan must forget the
	// resolved offender silently.
	c.mgr.Fail(1)
	if !c.mgr.WaitEpoch(2, 2*time.Second) {
		t.Fatal("no view change after failing the silent follower")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("slot did not complete after pruning the dead follower")
	}
	eng.watchdogScan(time.Now().Add(time.Hour), age, reported)
	if n := reg.Incidents.Total(); n != 1 {
		t.Fatalf("resolved slot re-reported: %d incidents", n)
	}

	// A fresh wedge is a new offender and fires again.
	c.hub.SetDown(2, true)
	_, _ = c.localWrite(0, 0, []wire.ObjectID{1}, "wedged-again")
	eng.watchdogScan(time.Now().Add(time.Hour), age, reported)
	if n := reg.Incidents.Total(); n != 2 {
		t.Fatalf("fresh wedge raised no incident: total=%d", n)
	}
}

// TestWatchdogQuietWhenHealthy: a drained engine has no debt, so scans must
// stay silent regardless of the threshold.
func TestWatchdogQuietWhenHealthy(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestClusterWith(t, 2, onNode(0, Config{Obs: reg}))
	eng := c.nodes[0].eng
	c.seedObject(1, 0, wire.BitmapOf(1))
	_, done := c.localWrite(0, 0, []wire.ObjectID{1}, "healthy")
	<-done
	eng.watchdogScan(time.Now().Add(time.Hour), time.Nanosecond, make(map[string]bool))
	if n := reg.Incidents.Total(); n != 0 {
		t.Fatalf("healthy engine raised %d incidents: %+v", n, reg.Incidents.Recent())
	}
}
