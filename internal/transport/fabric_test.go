package transport

import (
	"testing"
	"time"

	"zeus/internal/netsim"
)

// TestFabricSetDownAndBack: on every fabric a downed endpoint hears nothing,
// the endpoint asked for after SetDown(id, false) does, and the counters have
// moved. What that endpoint is differs: the hub and the simulated fabric hand
// back the one the id always had, the TCP fabric a new listener every peer has
// the address of.
func TestFabricSetDownAndBack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fabric Fabric
	}{
		{"hub", NewHub()},
		{"sim", NewSimFabric(netsim.Config{Seed: 3, MaxLatency: 20 * time.Microsecond, InboxDepth: 1 << 10})},
		{"tcp", NewTCPFabric()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.fabric
			defer f.Close()
			a, b := f.Node(0), f.Node(1)
			if f.Node(1) != b {
				t.Fatal("a second Node(1) is a second endpoint")
			}
			got := newCollect()
			b.SetHandler(got.handler)
			if err := a.Send(1, ping(1)); err != nil {
				t.Fatal(err)
			}
			Flush(a)
			got.waitN(t, 1, 2*time.Second)

			f.SetDown(1, true)
			_ = a.Send(1, ping(2)) // into the void; on TCP the dial may fail
			Flush(a)
			time.Sleep(20 * time.Millisecond)
			f.SetDown(1, false)
			again := f.Node(1)
			if was, ok := b.(*TCP); ok {
				is := again.(*TCP)
				if is == was || is.Addr() == was.Addr() {
					t.Fatalf("endpoint after the crash listens on %s, the dead one's %s", is.Addr(), was.Addr())
				}
				a.(*TCP).mu.Lock()
				booked := a.(*TCP).addrs[1]
				a.(*TCP).mu.Unlock()
				if booked != is.Addr() {
					t.Fatalf("peer's book has %s for node 1, which listens on %s", booked, is.Addr())
				}
			} else if again != b {
				t.Fatal("endpoint after SetDown(false) is not the one the id had")
			}
			again.SetHandler(got.handler)
			// Resent until heard: on TCP a write into the dead endpoint's
			// socket can succeed once before the route is dropped and redialled.
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
				_ = a.Send(1, ping(3))
				Flush(a)
				got.mu.Lock()
				last := pingSeq(got.msgs[len(got.msgs)-1])
				got.mu.Unlock()
				if last == 3 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("last message heard is %d, want 3", last)
				}
			}
			if f.Messages() == 0 || f.Bytes() == 0 {
				t.Fatalf("fabric counted %d messages, %d bytes", f.Messages(), f.Bytes())
			}
		})
	}
}
