package netsim

import (
	"sync"
	"testing"
	"time"

	"zeus/internal/wire"
)

func perfect() Config {
	return Config{Seed: 1, MinLatency: 0, MaxLatency: 0, InboxDepth: 1024}
}

func TestDeliverBasic(t *testing.T) {
	n := New(perfect())
	defer n.Close()
	a, b := n.Endpoint(0), n.Endpoint(1)
	if err := a.Send(1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	f, ok := b.Recv()
	if !ok || string(f.Payload) != "hi" || f.From != 0 {
		t.Fatalf("got %+v ok=%v", f, ok)
	}
}

func TestPayloadIsCopied(t *testing.T) {
	n := New(perfect())
	defer n.Close()
	a, b := n.Endpoint(0), n.Endpoint(1)
	buf := []byte("abc")
	if err := a.Send(1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // mutation after send must not corrupt the frame
	f, _ := b.Recv()
	if string(f.Payload) != "abc" {
		t.Fatalf("payload aliased sender buffer: %q", f.Payload)
	}
}

func TestLossDropsFrames(t *testing.T) {
	cfg := perfect()
	cfg.LossProb = 1.0
	n := New(cfg)
	defer n.Close()
	a, b := n.Endpoint(0), n.Endpoint(1)
	for i := 0; i < 50; i++ {
		if err := a.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("frame delivered despite 100% loss")
	}
	if st := n.Stats(); st.Lost != 50 {
		t.Fatalf("lost = %d, want 50", st.Lost)
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	cfg := perfect()
	cfg.DupProb = 1.0
	n := New(cfg)
	defer n.Close()
	a, b := n.Endpoint(0), n.Endpoint(1)
	if err := a.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(time.Second)
	got := 0
	for got < 2 {
		select {
		case <-b.inbox:
			got++
		case <-deadline:
			t.Fatalf("only %d copies delivered", got)
		}
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(perfect())
	defer n.Close()
	a, b := n.Endpoint(0), n.Endpoint(1)
	n.Partition(0, 1)
	if err := a.Send(1, []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("frame crossed a partition")
	}
	n.Heal(0, 1)
	if err := a.Send(1, []byte("open")); err != nil {
		t.Fatal(err)
	}
	f, ok := b.Recv()
	if !ok || string(f.Payload) != "open" {
		t.Fatalf("post-heal delivery failed: %+v %v", f, ok)
	}
}

func TestDownEndpointDropsTraffic(t *testing.T) {
	n := New(perfect())
	defer n.Close()
	a, b := n.Endpoint(0), n.Endpoint(1)
	n.SetDown(1, true)
	if err := a.Send(1, []byte("dead")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("dead endpoint received a frame")
	}
	// A down endpoint cannot send either.
	if err := b.Send(0, []byte("zombie")); err == nil {
		t.Fatal("down endpoint sent a frame")
	}
	n.SetDown(1, false)
	if err := a.Send(1, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if f, ok := b.Recv(); !ok || string(f.Payload) != "alive" {
		t.Fatalf("revived endpoint: %+v %v", f, ok)
	}
}

func TestUnknownDestinationDoesNotBlock(t *testing.T) {
	n := New(perfect())
	defer n.Close()
	a := n.Endpoint(0)
	if err := a.Send(42, []byte("void")); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.Blocked != 1 {
		t.Fatalf("blocked = %d, want 1", st.Blocked)
	}
}

func TestLatencyOrderingJitter(t *testing.T) {
	cfg := Config{Seed: 7, MinLatency: 0, MaxLatency: 2 * time.Millisecond, InboxDepth: 1024}
	n := New(cfg)
	defer n.Close()
	a, b := n.Endpoint(0), n.Endpoint(1)
	const N = 64
	for i := 0; i < N; i++ {
		if err := a.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make([]byte, 0, N)
	for len(seen) < N {
		f, ok := b.Recv()
		if !ok {
			t.Fatal("network closed early")
		}
		seen = append(seen, f.Payload[0])
	}
	inOrder := true
	for i := 1; i < N; i++ {
		if seen[i] < seen[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Log("note: jittered fabric happened to deliver in order (allowed, but unlikely)")
	}
}

func TestConcurrentSendersRace(t *testing.T) {
	n := New(DefaultConfig())
	defer n.Close()
	dst := n.Endpoint(9)
	var wg sync.WaitGroup
	for s := wire.NodeID(0); s < 4; s++ {
		src := n.Endpoint(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = src.Send(9, []byte{1, 2, 3})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			if _, ok := dst.Recv(); !ok {
				return
			}
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out draining frames")
	}
	if st := n.Stats(); st.Delivered != 400 {
		t.Fatalf("delivered = %d, want 400", st.Delivered)
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	n := New(perfect())
	b := n.Endpoint(1)
	done := make(chan bool)
	go func() {
		_, ok := b.Recv()
		done <- ok
	}()
	time.Sleep(time.Millisecond)
	n.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv returned ok after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	// Double close is safe; post-close sends fail.
	n.Close()
	if err := n.Endpoint(0).Send(1, nil); err == nil {
		t.Fatal("send after close should fail")
	}
}

func TestEndpointIsStable(t *testing.T) {
	n := New(perfect())
	defer n.Close()
	if n.Endpoint(3) != n.Endpoint(3) {
		t.Fatal("Endpoint must return a stable instance per id")
	}
	if n.Endpoint(3).ID() != 3 {
		t.Fatal("wrong id")
	}
}

// frameFate is what a run showed of one frame's fate: whether it was lost,
// and whether it was duplicated.
type frameFate struct{ lost, dup bool }

// fates sends n frames over link 0→1 and returns what became of each,
// checking it against the pure fate function the network draws it from.
func fates(t *testing.T, cfg Config, n int) []frameFate {
	t.Helper()
	nw := New(cfg)
	defer nw.Close()
	src := nw.Endpoint(0)
	nw.Endpoint(1)
	got := make([]frameFate, n)
	for i := range got {
		before := nw.Stats()
		_ = src.Send(1, []byte{byte(i)})
		after := nw.Stats()
		got[i] = frameFate{lost: after.Lost > before.Lost, dup: after.Duplicate > before.Duplicate}
		lost, dup, _, _ := nw.cfg.fate(0, 1, uint64(i))
		if want := (frameFate{lost: lost, dup: dup && !lost}); got[i] != want {
			t.Fatalf("frame %d: the network did %+v, its fate is %+v", i, got[i], want)
		}
	}
	return got
}

// TestFrameFateReproducible: a frame's loss, duplication and two latencies
// are a function of the seed, the link and the frame's index alone.
func TestFrameFateReproducible(t *testing.T) {
	cfg := Config{Seed: 99, MinLatency: 10 * time.Microsecond, MaxLatency: 30 * time.Microsecond,
		LossProb: 0.2, DupProb: 0.1}
	const N = 500
	a := fates(t, cfg, N)
	b := fates(t, cfg, N)
	drops, dups := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d: run1 %+v, run2 %+v", i, a[i], b[i])
		}
		if a[i].lost {
			drops++
		}
		if a[i].dup {
			dups++
		}
	}
	// The hash should approximate the configured rates (20% ± 5pp of the
	// frames lost, 10% ± 5pp of the delivered ones duplicated).
	if drops < N*15/100 || drops > N*25/100 {
		t.Fatalf("loss rate %d/%d far from 20%%", drops, N)
	}
	if kept := N - drops; dups < kept*5/100 || dups > kept*15/100 {
		t.Fatalf("duplication rate %d/%d far from 10%%", dups, kept)
	}

	// Both latencies lie in [MinLatency, MaxLatency] and spread over it.
	lo, hi := cfg.MaxLatency, cfg.MinLatency
	for i := uint64(0); i < N; i++ {
		_, _, lat, lat2 := cfg.fate(0, 1, i)
		for _, l := range []time.Duration{lat, lat2} {
			if l < cfg.MinLatency || l > cfg.MaxLatency {
				t.Fatalf("frame %d: latency %v outside [%v, %v]", i, l, cfg.MinLatency, cfg.MaxLatency)
			}
			lo, hi = min(lo, l), max(hi, l)
		}
	}
	if spread := cfg.MaxLatency - cfg.MinLatency; lo > cfg.MinLatency+spread/10 || hi < cfg.MaxLatency-spread/10 {
		t.Fatalf("latencies span [%v, %v] of [%v, %v]", lo, hi, cfg.MinLatency, cfg.MaxLatency)
	}
	fixed := Config{Seed: 99, MinLatency: 7 * time.Microsecond, MaxLatency: 7 * time.Microsecond}
	if _, _, lat, lat2 := fixed.fate(0, 1, 3); lat != fixed.MinLatency || lat2 != fixed.MinLatency {
		t.Fatalf("fixed latency %v gave %v and %v", fixed.MinLatency, lat, lat2)
	}

	// Probabilities 0 and 1 mean never and always.
	for _, p := range []float64{0, 1} {
		c := Config{Seed: 5, LossProb: p, DupProb: p}
		for i := uint64(0); i < N; i++ {
			if lost, dup, _, _ := c.fate(2, 3, i); lost != (p == 1) || dup != (p == 1) {
				t.Fatalf("probability %v: frame %d lost=%v dup=%v", p, i, lost, dup)
			}
		}
	}

	// A different seed must give a different pattern, and other latencies.
	reseeded := cfg
	reseeded.Seed = 100
	c := fates(t, reseeded, N)
	sameFate, sameLat := 0, 0
	for i := range a {
		if a[i] == c[i] {
			sameFate++
		}
		_, _, l1, _ := cfg.fate(0, 1, uint64(i))
		_, _, l2, _ := reseeded.fate(0, 1, uint64(i))
		if l1 == l2 {
			sameLat++
		}
	}
	if sameFate == N || sameLat == N {
		t.Fatalf("seed change kept %d/%d fates and %d/%d latencies", sameFate, N, sameLat, N)
	}
}

func TestFrameFateIndependentOfInterleaving(t *testing.T) {
	// Frames on link 0→1 keep their fates even when another link's
	// traffic is interleaved differently between runs.
	run := func(interleave bool) []frameFate {
		cfg := Config{Seed: 7, LossProb: 0.2, DupProb: 0.1}
		nw := New(cfg)
		defer nw.Close()
		src := nw.Endpoint(0)
		other := nw.Endpoint(2)
		nw.Endpoint(1)
		pattern := make([]frameFate, 200)
		for i := range pattern {
			if interleave {
				_ = other.Send(1, []byte("noise"))
			}
			// Read the counters strictly around the 0→1 send, so the
			// noise frame's fate is not counted.
			before := nw.Stats()
			_ = src.Send(1, []byte{byte(i)})
			after := nw.Stats()
			pattern[i] = frameFate{lost: after.Lost > before.Lost, dup: after.Duplicate > before.Duplicate}
		}
		return pattern
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d fate changed with interleaved traffic: %+v, then %+v", i, a[i], b[i])
		}
	}
}
