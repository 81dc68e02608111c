package epcgw

import (
	"math/rand"
	"testing"

	"zeus/internal/cluster"
)

func zeusGateway(t *testing.T, nodes, activeNode int) (*Gateway, *cluster.Cluster) {
	t.Helper()
	opts := cluster.DefaultOptions(nodes)
	opts.Degree = 2
	opts.Workers = 4
	c := cluster.New(opts)
	t.Cleanup(c.Close)
	cfg := DefaultConfig(activeNode, nodes)
	cfg.Users = 100
	cfg.ParseWork = 4
	g := New(cfg, c.Node(activeNode).DB())
	g.SeedObjects(func(obj uint64, home int, data []byte) {
		c.SeedAt(wireObj(obj), wireNode(home), data)
	})
	return g, c
}

func TestServiceRequestTransitionsState(t *testing.T) {
	g, _ := zeusGateway(t, 2, 0)
	if err := g.ServiceRequest(0, 7); err != nil {
		t.Fatal(err)
	}
	st, err := g.State(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st != StateConnected {
		t.Fatalf("state = %d, want CONNECTED", st)
	}
	if err := g.Release(0, 7); err != nil {
		t.Fatal(err)
	}
	st, err = g.State(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st != StateIdle {
		t.Fatalf("state = %d, want IDLE", st)
	}
}

func TestOutOfRangeUE(t *testing.T) {
	g, _ := zeusGateway(t, 2, 0)
	if err := g.ServiceRequest(0, -1); err == nil {
		t.Fatal("negative ue accepted")
	}
	if err := g.Release(0, 10000); err == nil {
		t.Fatal("oversized ue accepted")
	}
}

func TestDriveMix(t *testing.T) {
	g, _ := zeusGateway(t, 2, 0)
	done, err := g.Drive(0, 50, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if done != 50 {
		t.Fatalf("drove %d/50", done)
	}
}

func TestTwoActiveGateways(t *testing.T) {
	opts := cluster.DefaultOptions(2)
	opts.Degree = 2
	c := cluster.New(opts)
	t.Cleanup(c.Close)
	var gws []*Gateway
	for n := 0; n < 2; n++ {
		cfg := DefaultConfig(n, 2)
		cfg.Users = 50
		cfg.ParseWork = 4
		g := New(cfg, c.Node(n).DB())
		g.SeedObjects(func(obj uint64, home int, data []byte) {
			c.SeedAt(wireObj(obj), wireNode(home), data)
		})
		gws = append(gws, g)
	}
	// Both active nodes process their own users concurrently.
	done := make(chan error, 2)
	for n := 0; n < 2; n++ {
		go func(n int) {
			_, err := gws[n].Drive(n, 40, rand.New(rand.NewSource(int64(n))))
			done <- err
		}(n)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestLocalDBGateway(t *testing.T) {
	ldb := NewLocalDB()
	cfg := DefaultConfig(0, 1)
	cfg.Users = 20
	cfg.ParseWork = 2
	g := New(cfg, ldb)
	g.SeedObjects(func(obj uint64, home int, data []byte) { ldb.Seed(obj, data) })
	if err := g.ServiceRequest(0, 3); err != nil {
		t.Fatal(err)
	}
	st, err := g.State(0, 3)
	if err != nil || st != StateConnected {
		t.Fatalf("local state: %d %v", st, err)
	}
	// Missing object error.
	tx := ldb.Begin(0)
	if _, err := tx.Get(999999); err == nil {
		t.Fatal("missing object read succeeded")
	}
	tx.Abort()
}

func TestSequenceNumbersAdvance(t *testing.T) {
	g, c := zeusGateway(t, 2, 0)
	for i := 0; i < 5; i++ {
		if err := g.ServiceRequest(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.Release(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	o, ok := c.Node(0).Store().Get(wireObj(g.UEObj(1)))
	if !ok {
		t.Fatal("ue ctx missing")
	}
	o.Mu.Lock()
	_, seq := decode(o.DataLocked())
	o.Mu.Unlock()
	if seq != 10 {
		t.Fatalf("seq = %d, want 10", seq)
	}
}
