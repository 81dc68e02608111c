// Package bench implements the paper's evaluation workloads (§8): the
// cellular Handovers benchmark, Smallbank, TATP and Voter (Table 2), the
// locality analyses (Boston handovers, Venmo graph, TPC-C closed form), and
// what stands a system up for them: the seeders that give Zeus and the
// distributed-commit baseline the same initial sharding, and the baseline's
// deployment. A workload's MakeOp yields an Op against any dbapi.DB;
// internal/loadgen drives it, closed loop for the paper's figures.
package bench

import (
	"encoding/binary"
	"math/rand"
)

// FromU64 decodes a counter payload.
func FromU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Pad returns a payload of the given size with the counter in front —
// workloads with large contexts (Handovers commits ~400 B per transaction)
// use it to keep replication costs realistic.
func Pad(v uint64, size int) []byte {
	if size < 8 {
		size = 8
	}
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// Op is one request of a workload: it runs one transaction (including
// retry-on-conflict, typically via dbapi.Run) on the given worker, drawing
// its choices from the worker's rng. It is the one signature every load
// driver executes (loadgen.Run, and the repository benchmark's own loop).
type Op func(worker int, rng *rand.Rand) error
