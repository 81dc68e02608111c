package httplb

import (
	"math/rand"
	"testing"

	"zeus/internal/cluster"
	"zeus/internal/wire"
)

func zeusProxy(t *testing.T, nodes int) ([]*Proxy, *cluster.Cluster) {
	t.Helper()
	opts := cluster.DefaultOptions(nodes)
	opts.Degree = 2
	c := cluster.New(opts)
	t.Cleanup(c.Close)
	var proxies []*Proxy
	for n := 0; n < nodes; n++ {
		cfg := DefaultConfig(n, nodes)
		cfg.Sessions = 100
		p := New(cfg, c.Node(n).DB())
		p.SeedObjects(func(obj uint64, home int, data []byte) {
			c.SeedAt(wire.ObjectID(obj), wire.NodeID(home), data)
		})
		proxies = append(proxies, p)
	}
	return proxies, c
}

func TestAssignmentIsSticky(t *testing.T) {
	ps, _ := zeusProxy(t, 2)
	rng := rand.New(rand.NewSource(1))
	first, err := ps[0].Handle(0, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	if first < 1 || first > 2 {
		t.Fatalf("backend %d out of range", first)
	}
	for i := 0; i < 20; i++ {
		got, err := ps[0].Handle(0, 7, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("session flapped: %d then %d", first, got)
		}
	}
	handled, misses := ps[0].Stats()
	if handled != 21 || misses != 1 {
		t.Fatalf("stats: handled=%d misses=%d", handled, misses)
	}
}

func TestCookieOutOfRange(t *testing.T) {
	ps, _ := zeusProxy(t, 2)
	rng := rand.New(rand.NewSource(1))
	if _, err := ps[0].Handle(0, -1, rng); err == nil {
		t.Fatal("negative cookie accepted")
	}
	if _, err := ps[0].Handle(0, 100000, rng); err == nil {
		t.Fatal("oversized cookie accepted")
	}
}

func TestBackendsSpread(t *testing.T) {
	ps, _ := zeusProxy(t, 2)
	rng := rand.New(rand.NewSource(2))
	seen := map[int]int{}
	for cookie := 0; cookie < 100; cookie++ {
		b, err := ps[0].Handle(0, cookie, rng)
		if err != nil {
			t.Fatal(err)
		}
		seen[b]++
	}
	if len(seen) != 2 {
		t.Fatalf("backends used: %v", seen)
	}
}

func TestScaleOutServesExistingSessions(t *testing.T) {
	// Start with one proxy node; assign sessions; scale out and verify the
	// new node routes the same sessions identically (Figure 15's
	// seamless scale-out).
	opts := cluster.DefaultOptions(2)
	opts.Degree = 2
	c := cluster.New(opts)
	t.Cleanup(c.Close)
	cfg := DefaultConfig(0, 2)
	cfg.Sessions = 50
	p0 := New(cfg, c.Node(0).DB())
	p0.SeedObjects(func(obj uint64, home int, data []byte) {
		c.SeedAt(wire.ObjectID(obj), wire.NodeID(home), data)
	})
	rng := rand.New(rand.NewSource(3))
	want := map[int]int{}
	for cookie := 0; cookie < 50; cookie++ {
		b, err := p0.Handle(0, cookie, rng)
		if err != nil {
			t.Fatal(err)
		}
		want[cookie] = b
	}
	if !c.Node(0).CommitEngine().WaitIdle(cfg2s()) {
		t.Fatal("replication stalled")
	}
	// The scale-out proxy on node 1 shares the same session objects.
	p1 := New(cfg, c.Node(1).DB())
	for cookie := 0; cookie < 50; cookie++ {
		b, err := p1.Handle(1, cookie, rng)
		if err != nil {
			t.Fatalf("cookie %d on new proxy: %v", cookie, err)
		}
		if b != want[cookie] {
			t.Fatalf("cookie %d rerouted: %d vs %d", cookie, b, want[cookie])
		}
	}
}
