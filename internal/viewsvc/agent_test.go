package viewsvc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/wire"
)

func TestInitialView(t *testing.T) {
	m := NewSelfHosted(Config{Lease: time.Millisecond}, wire.BitmapOf(0, 1, 2))
	defer m.Close()
	v := m.View()
	if v.Epoch != 1 || v.Live != wire.BitmapOf(0, 1, 2) {
		t.Fatalf("initial view: %+v", v)
	}
	a := m.Agent(0)
	if a.Epoch() != 1 || !a.IsLive(2) || a.IsLive(5) {
		t.Fatalf("agent view wrong: %+v", a.View())
	}
	if a.Self() != 0 {
		t.Fatal("agent self wrong")
	}
	if m.Agent(0) != a {
		t.Fatal("Agent must be stable per id")
	}
}

func TestFailWaitsForLease(t *testing.T) {
	lease := 30 * time.Millisecond
	m := NewSelfHosted(Config{Lease: lease}, wire.BitmapOf(0, 1, 2))
	defer m.Close()
	a := m.Agent(0)
	a.Renew()
	start := time.Now()
	m.Fail(2)
	// View must not change before the lease expires.
	time.Sleep(lease / 3)
	if m.View().Epoch != 1 {
		t.Fatal("view changed before lease expiry")
	}
	if !m.WaitEpoch(2, time.Second) {
		t.Fatal("epoch never advanced")
	}
	if elapsed := time.Since(start); elapsed < lease/2 {
		t.Fatalf("view changed after only %v (lease %v)", elapsed, lease)
	}
	v := m.View()
	if v.Live.Contains(2) || v.Epoch != 2 {
		t.Fatalf("post-failure view: %+v", v)
	}
}

func TestFailIsIdempotent(t *testing.T) {
	m := NewSelfHosted(Config{Lease: time.Millisecond}, wire.BitmapOf(0, 1, 2))
	defer m.Close()
	m.Fail(2)
	m.Fail(2)
	if !m.WaitEpoch(2, time.Second) {
		t.Fatal("no view change")
	}
	time.Sleep(5 * time.Millisecond)
	if e := m.View().Epoch; e != 2 {
		t.Fatalf("double-fail bumped epoch twice: %d", e)
	}
	m.Fail(7) // unknown node: no-op
	time.Sleep(5 * time.Millisecond)
	if e := m.View().Epoch; e != 2 {
		t.Fatalf("failing unknown node changed epoch: %d", e)
	}
}

func TestChangeCallbackCarriesRemovedSet(t *testing.T) {
	m := NewSelfHosted(Config{Lease: time.Millisecond}, wire.BitmapOf(0, 1, 2))
	defer m.Close()
	a := m.Agent(0)
	type change struct {
		old, next wire.View
		removed   wire.Bitmap
	}
	ch := make(chan change, 4)
	a.OnChange(func(old, next wire.View, removed wire.Bitmap) {
		ch <- change{old, next, removed}
	})
	m.Fail(1)
	select {
	case c := <-ch:
		if c.old.Epoch != 1 || c.next.Epoch != 2 {
			t.Fatalf("epochs: %+v", c)
		}
		if c.removed != wire.BitmapOf(1) {
			t.Fatalf("removed = %v", c.removed)
		}
	case <-time.After(time.Second):
		t.Fatal("no change delivered")
	}
}

func TestDeadAgentNotNotified(t *testing.T) {
	m := NewSelfHosted(Config{Lease: time.Millisecond}, wire.BitmapOf(0, 1))
	defer m.Close()
	dead := m.Agent(1)
	var notified atomic.Bool
	dead.OnChange(func(_, _ wire.View, _ wire.Bitmap) { notified.Store(true) })
	m.Fail(1)
	if !m.WaitEpoch(2, time.Second) {
		t.Fatal("no view change")
	}
	time.Sleep(5 * time.Millisecond)
	if notified.Load() {
		t.Fatal("dead node observed its own removal")
	}
}

func TestRecoveryBarrier(t *testing.T) {
	m := NewSelfHosted(Config{Lease: time.Millisecond}, wire.BitmapOf(0, 1, 2))
	defer m.Close()
	a0, a1 := m.Agent(0), m.Agent(1)
	var mu sync.Mutex
	recovered := map[wire.NodeID][]wire.Epoch{}
	a0.OnRecovered(func(e wire.Epoch) {
		mu.Lock()
		recovered[0] = append(recovered[0], e)
		mu.Unlock()
	})
	a1.OnRecovered(func(e wire.Epoch) {
		mu.Lock()
		recovered[1] = append(recovered[1], e)
		mu.Unlock()
	})
	m.Fail(2)
	if !m.WaitEpoch(2, time.Second) {
		t.Fatal("no view change")
	}
	if !m.RecoveryPending() {
		t.Fatal("failure must open the recovery barrier")
	}
	a0.ReportRecoveryDone(2)
	time.Sleep(2 * time.Millisecond)
	if !m.RecoveryPending() {
		t.Fatal("barrier closed before all live nodes reported")
	}
	a1.ReportRecoveryDone(2)
	deadline := time.Now().Add(time.Second)
	for m.RecoveryPending() {
		if time.Now().After(deadline) {
			t.Fatal("barrier never closed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recovered[0]) != 1 || recovered[0][0] != 2 {
		t.Fatalf("node0 recovered callbacks: %v", recovered[0])
	}
	if len(recovered[1]) != 1 {
		t.Fatalf("node1 recovered callbacks: %v", recovered[1])
	}
}

func TestRecoveryDoneStaleEpochIgnored(t *testing.T) {
	m := NewSelfHosted(Config{Lease: time.Millisecond}, wire.BitmapOf(0, 1, 2))
	defer m.Close()
	a0 := m.Agent(0)
	// Reporting for an epoch with no open barrier is a no-op.
	a0.ReportRecoveryDone(1)
	a0.ReportRecoveryDone(99)
	if m.RecoveryPending() {
		t.Fatal("no barrier should be open")
	}
}

func TestJoinBumpsEpochWithoutBarrier(t *testing.T) {
	m := NewSelfHosted(Config{Lease: time.Millisecond}, wire.BitmapOf(0, 1))
	defer m.Close()
	a0 := m.Agent(0)
	var removedSeen atomic.Int32
	a0.OnChange(func(_, _ wire.View, removed wire.Bitmap) {
		removedSeen.Store(int32(removed.Count()))
	})
	m.Join(5)
	v := m.View()
	if v.Epoch != 2 || !v.Live.Contains(5) {
		t.Fatalf("post-join view: %+v", v)
	}
	if m.RecoveryPending() {
		t.Fatal("join must not open a recovery barrier")
	}
	if removedSeen.Load() != 0 {
		t.Fatal("join reported removed nodes")
	}
	m.Join(5) // idempotent
	if m.View().Epoch != 2 {
		t.Fatal("re-join bumped epoch")
	}
}

func TestLeaveOpensBarrierImmediately(t *testing.T) {
	m := NewSelfHosted(Config{Lease: time.Hour}, wire.BitmapOf(0, 1, 2))
	defer m.Close()
	m.Leave(2)
	v := m.View()
	if v.Epoch != 2 || v.Live.Contains(2) {
		t.Fatalf("post-leave view: %+v", v)
	}
	if !m.RecoveryPending() {
		t.Fatal("leave must open the recovery barrier")
	}
}

func TestAgentIgnoresStaleViews(t *testing.T) {
	m := NewSelfHosted(Config{Lease: time.Millisecond}, wire.BitmapOf(0, 1))
	defer m.Close()
	a := m.Agent(0)
	old := wire.View{Epoch: 0, Live: wire.BitmapOf(0)}
	a.apply(old, old, 0, nil) // stale epoch: ignored
	if a.Epoch() != 1 {
		t.Fatalf("agent applied stale view: %+v", a.View())
	}
}

func TestRenewExtendsLease(t *testing.T) {
	lease := 25 * time.Millisecond
	m := NewSelfHosted(Config{Lease: lease}, wire.BitmapOf(0, 1))
	defer m.Close()
	a1 := m.Agent(1)
	// Renew right before failing: expiry counts from the renewal.
	time.Sleep(5 * time.Millisecond)
	a1.Renew()
	start := time.Now()
	m.Fail(1)
	if !m.WaitEpoch(2, time.Second) {
		t.Fatal("no view change")
	}
	if e := time.Since(start); e < lease*8/10 {
		t.Fatalf("lease cut short: %v < %v", e, lease)
	}
}

func TestConcurrentFailuresDistinctEpochs(t *testing.T) {
	m := NewSelfHosted(Config{Lease: time.Millisecond}, wire.BitmapOf(0, 1, 2, 3, 4, 5))
	defer m.Close()
	m.Fail(4)
	m.Fail(5)
	if !m.WaitEpoch(3, time.Second) {
		t.Fatalf("epoch = %d, want 3", m.View().Epoch)
	}
	v := m.View()
	if v.Live.Contains(4) || v.Live.Contains(5) || v.Live.Count() != 4 {
		t.Fatalf("final view: %+v", v)
	}
}
