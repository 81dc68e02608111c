package commit

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"zeus/internal/wire"
)

// TestDumpStateShowsWedgedSlot pins the wedge-dump format: a coordinator
// slot stranded by an unreachable (but still-live-in-the-view) follower must
// surface in DumpState with its pipe, slot and the object's pending debt —
// that is exactly the trace the torture tests' wedge dump relies on.
func TestDumpStateShowsWedgedSlot(t *testing.T) {
	c := newTestCluster(t, 2)
	c.seedObject(7, 0, wire.BitmapOf(1))
	// Strand the R-INV: the follower stays in the view (no Fail report) but
	// never sees the message or ACKs, so the slot stays open and
	// PendingCommits stays pinned. SetDown drops frames before the inbox;
	// Close would race its select and occasionally let one message through.
	c.hub.SetDown(1, true)

	_, done := c.localWrite(0, 0, []wire.ObjectID{7}, "wedge")
	select {
	case <-done:
		t.Fatal("slot validated despite the unreachable follower")
	case <-time.After(10 * time.Millisecond):
	}

	var buf bytes.Buffer
	c.nodes[0].eng.DumpState(&buf)
	out := buf.String()
	for _, want := range []string{
		"commit.Engine node=0",
		"outPipe worker=0",
		"slot local=1",
		"object id=7",
		"tstate=Write",
		"pending=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}

	// A healthy engine dumps no slots and no indebted objects.
	var clean bytes.Buffer
	c.nodes[1].eng.DumpState(&clean)
	for _, stale := range []string{"outPipe", "object id="} {
		if strings.Contains(clean.String(), stale) {
			t.Errorf("idle follower dump shows %q:\n%s", stale, clean.String())
		}
	}
}
