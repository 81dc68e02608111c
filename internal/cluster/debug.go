package cluster

import (
	"fmt"
	"io"
)

// WedgeDump writes every node's commit-engine state (open coordinator slots,
// stored/buffered follower R-INVs, the replay table, objects with commit
// debt) to w, in node order. Safe on a live or wedged cluster: each engine
// takes its pipe/object locks briefly and in isolation. The torture tests
// call it when their final read fails, so the pending-commit wedge (ROADMAP
// liveness bug) leaves a trace — which slot pins PendingCommits, on whose
// pipe, in which epoch — beside the retry-exhausted error.
func (c *Cluster) WedgeDump(w io.Writer, context string) {
	fmt.Fprintf(w, "==== wedge dump (%s) ====\n", context)
	for _, n := range c.everyNode() {
		n.CommitEngine().DumpState(w)
	}
	fmt.Fprintf(w, "==== end wedge dump ====\n")
}
