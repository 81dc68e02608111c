package commit

import (
	"fmt"
	"io"
	"sort"

	"zeus/internal/store"
	"zeus/internal/wire"
)

// DumpState writes a human-readable snapshot of the engine's invariant
// surface to w: every unvalidated coordinator slot (own, and adopted from a
// dead coordinator), every follower pipe with stored or buffered R-INVs, and
// every store object still carrying commit debt (PendingCommits > 0 or a
// non-Valid t_state). It exists for the pending-commit wedge hunt (ROADMAP): when a
// torture final read exhausts NackPendingCommit retries, this is the trace
// that says WHICH slot pins the counter and on WHOSE pipe it is stranded.
//
// Diagnostic only: it takes each pipe/object lock briefly and in isolation,
// so a dump of a live (even wedged) engine is safe, but the snapshot is not
// atomic across pipes.
func (e *Engine) DumpState(w io.Writer) {
	fmt.Fprintf(w, "== commit.Engine node=%d epoch=%d live=%v ==\n",
		e.self, e.agent.Epoch(), e.agent.View().Live.Nodes())

	e.eachPipe(func(p *outPipe) {
		p.mu.Lock()
		if len(p.slots) > 0 {
			if p.adopted {
				fmt.Fprintf(w, "adopted pipe=%v openSlots=%d\n", p.id, len(p.slots))
			} else {
				fmt.Fprintf(w, "outPipe worker=%d nextLocal=%d openSlots=%d\n", p.id.Worker, p.nextLocal, len(p.slots))
			}
			for _, local := range sortedKeys(p.slots) {
				s := p.slots[local]
				fmt.Fprintf(w, "  slot local=%d tx=%v epoch=%d followers=%v acked=%v valed=%v updates=%d\n",
					local, s.Tx(), s.inv.Epoch, s.followers.Nodes(), s.acked.Nodes(), s.valed, len(s.inv.Updates))
			}
		}
		p.mu.Unlock()
	})

	e.inPipes.Range(func(id wire.PipeID, p *inPipe) bool {
		p.mu.Lock()
		if len(p.stored) > 0 || len(p.waiting) > 0 {
			fmt.Fprintf(w, "inPipe coord=%d worker=%d watermark=%d stored=%v waiting=%v\n",
				id.Node, id.Worker, p.watermark, sortedKeys(p.stored), sortedKeys(p.waiting))
			for _, local := range sortedKeys(p.stored) {
				inv := p.stored[local]
				objs := make([]wire.ObjectID, 0, len(inv.Updates))
				for _, u := range inv.Updates {
					objs = append(objs, u.Obj)
				}
				fmt.Fprintf(w, "  stored local=%d epoch=%d replay=%v objs=%v\n", local, inv.Epoch, inv.Replay, objs)
			}
		}
		p.mu.Unlock()
		return true
	})

	e.st.ForEach(func(o *store.Object) bool {
		o.Mu.Lock()
		pending := o.PendingCommits.Load()
		if pending > 0 || o.TState() != store.TValid {
			fmt.Fprintf(w, "object id=%d tver=%d tstate=%v pending=%d ostate=%v level=%v owner=%d localOwner=%d\n",
				o.ID, o.TVersion(), o.TState(), pending, o.OStateLocked(), o.LevelLocked(), o.ReplicasLocked().Owner, o.LocalOwnerLocked())
		}
		o.Mu.Unlock()
		return true
	})
}

// sortedKeys returns m's keys in ascending order (deterministic dumps).
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
