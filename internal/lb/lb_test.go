package lb

import (
	"testing"
	"time"

	"zeus/internal/hermes"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

func newBalancers(t *testing.T, n int) ([]*Balancer, *viewsvc.Client) {
	t.Helper()
	var members wire.Bitmap
	for i := 0; i < n; i++ {
		members = members.Add(wire.NodeID(i))
	}
	hub := transport.NewHub()
	mgr := viewsvc.NewSelfHosted(viewsvc.Config{Lease: time.Millisecond}, members)
	t.Cleanup(mgr.Close)
	out := make([]*Balancer, n)
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		tr := hub.Node(id)
		r := transport.NewRouter()
		kv := hermes.New(id, members, tr, mgr.Agent(id))
		kv.Register(r)
		tr.SetHandler(r.Dispatch)
		out[i] = New(kv, mgr.Agent(id), int64(i)+1)
		t.Cleanup(func() { tr.Close() })
	}
	return out, mgr
}

func TestRouteIsSticky(t *testing.T) {
	bs, _ := newBalancers(t, 3)
	first, err := bs[0].Route(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err := bs[0].Route(42)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("route flapped: %d then %d", first, got)
		}
	}
}

func TestRouteConsistentAcrossBalancers(t *testing.T) {
	bs, _ := newBalancers(t, 3)
	first, err := bs[0].Route(7)
	if err != nil {
		t.Fatal(err)
	}
	// Other balancer replicas must agree (possibly after the VAL settles).
	deadline := time.Now().Add(time.Second)
	for _, b := range bs[1:] {
		for {
			got, err := b.Route(7)
			if err == nil && got == first {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("balancers disagree: %d vs %d (%v)", got, first, err)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestRouteSpreadsKeys(t *testing.T) {
	bs, _ := newBalancers(t, 3)
	seen := map[wire.NodeID]int{}
	for k := uint64(0); k < 60; k++ {
		dst, err := bs[0].Route(k)
		if err != nil {
			t.Fatal(err)
		}
		seen[dst]++
	}
	if len(seen) < 2 {
		t.Fatalf("all 60 keys routed to one node: %v", seen)
	}
}

func TestRouteReassignsAfterNodeDeath(t *testing.T) {
	bs, mgr := newBalancers(t, 3)
	if err := bs[0].Assign(9, 2); err != nil {
		t.Fatal(err)
	}
	mgr.Fail(2)
	if !mgr.WaitEpoch(2, time.Second) {
		t.Fatal("no view change")
	}
	dst, err := bs[0].Route(9)
	if err != nil {
		t.Fatal(err)
	}
	if dst == 2 {
		t.Fatal("routed to a dead node")
	}
}

func TestRouteString(t *testing.T) {
	bs, _ := newBalancers(t, 3)
	a, err := bs[0].RouteString("user:alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bs[0].RouteString("user:alice")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("string route not sticky: %d vs %d", a, b)
	}
	if HashKey("user:alice") == HashKey("user:bob") {
		t.Fatal("hash collision on trivial keys")
	}
}
