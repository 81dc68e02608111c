package cluster

import (
	"fmt"
	"io"

	"zeus/internal/store"
)

// WedgeDump writes every node's commit-engine state (open coordinator slots,
// stored/buffered follower R-INVs, the replay table, objects with commit
// debt) to w, in node order, and for every live node its ownership side: each
// object with a pending arbitration and the engine's counters. Safe on a live
// or wedged cluster: each engine takes its pipe/object locks briefly and in
// isolation. The torture tests call it when their final read fails, so a
// wedge leaves a trace — which slot pins PendingCommits, on whose pipe, in
// which epoch, or which arbitration never completes — beside the
// retry-exhausted error.
func (c *Cluster) WedgeDump(w io.Writer, context string) {
	fmt.Fprintf(w, "==== wedge dump (%s) ====\n", context)
	live := c.Live()
	for _, n := range c.everyNode() {
		n.CommitEngine().DumpState(w)
		if !live.Contains(n.ID()) {
			continue
		}
		fmt.Fprintf(w, "node %d ownership %+v\n", n.ID(), n.OwnershipEngine().Stats())
		n.Store().ForEach(func(o *store.Object) bool {
			o.Mu.Lock()
			p, pending := o.PendingLocked()
			ts, ost, lvl := o.OTSLocked(), o.OStateLocked(), o.LevelLocked()
			o.Mu.Unlock()
			if pending {
				fmt.Fprintf(w, "  obj %d: o_ts %v pending ⟨ts %v, driver %d, requester %d, arbiters %v, epoch %d⟩ o_state %v level %v\n",
					o.ID, ts, p.TS, p.Driver, p.Requester, p.Arbiters, p.Epoch, ost, lvl)
			}
			return true
		})
	}
	fmt.Fprintf(w, "==== end wedge dump ====\n")
}
