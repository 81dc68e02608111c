package cluster

import (
	"fmt"
	"io"
	"os"
)

// WedgeDumpEnv arms MaybeWedgeDump: when set (any non-empty value), a torture
// test whose final read exhausts its retries dumps every node's commit-engine
// invariant snapshot to stderr before failing. The CI race job sets it, so
// the ~1/60 pending-commit wedge flake (ROADMAP liveness bug) leaves a trace
// — which slot pins PendingCommits, on whose pipe, in which epoch — instead
// of only a retry-exhausted error.
const WedgeDumpEnv = "ZEUS_WEDGE_DUMP"

// WedgeDump writes every node's commit-engine state (open coordinator slots,
// stored/buffered follower R-INVs, the replay table, objects with commit
// debt) to w, in node order. Safe on a live or wedged cluster: each engine
// takes its pipe/object locks briefly and in isolation.
func (c *Cluster) WedgeDump(w io.Writer, context string) {
	fmt.Fprintf(w, "==== wedge dump (%s) ====\n", context)
	for _, n := range c.everyNode() {
		n.CommitEngine().DumpState(w)
	}
	fmt.Fprintf(w, "==== end wedge dump ====\n")
}

// MaybeWedgeDump dumps to stderr when ZEUS_WEDGE_DUMP is set in the
// environment; it reports whether a dump was written.
func (c *Cluster) MaybeWedgeDump(context string) bool {
	if os.Getenv(WedgeDumpEnv) == "" {
		return false
	}
	c.WedgeDump(os.Stderr, context)
	return true
}
