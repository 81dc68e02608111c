package cluster

import (
	"bytes"
	"strings"
	"testing"

	"zeus/internal/store"
	"zeus/internal/wire"
)

// TestWedgeDumpShowsPendingArbitrations: besides the commit engines' state,
// the dump names every live node's ownership counters and each object an
// arbitration holds, with who drives it for whom.
func TestWedgeDumpShowsPendingArbitrations(t *testing.T) {
	c := New(DefaultOptions(3))
	defer c.Close()
	c.SeedAt(7, 0, u64c(0))
	o, _ := c.Node(1).Store().Get(7)
	o.Mu.Lock()
	o.DriveLocked(store.PendingOwn{ReqID: 1, TS: wire.OTS{Ver: 5, Node: 1}, Requester: 2, Driver: 1,
		Mode: wire.AcquireOwner, Arbiters: wire.BitmapOf(0, 1, 2), Epoch: 1})
	o.Mu.Unlock()
	var buf bytes.Buffer
	c.WedgeDump(&buf, "test")
	dump := buf.String()
	for _, want := range []string{"node 0 ownership {Requests:", "node 2 ownership {", "obj 7: o_ts", "driver 1, requester 2", "o_state Drive"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump lacks %q:\n%s", want, dump)
		}
	}
	if n := strings.Count(dump, "obj 7:"); n != 1 {
		t.Errorf("obj 7 listed %d times, want once (only node 1 holds an arbitration):\n%s", n, dump)
	}
}
