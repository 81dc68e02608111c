package store

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"zeus/internal/wire"
)

// valueSide renders ⟨data, version, state⟩ — everything the transitions own —
// as one comparable line; a recorded transfer-fairness yield, expired or not,
// adds " yield".
func valueSide(o *Object) string {
	data := "nil"
	if d := o.DataLocked(); d != nil {
		data = string(d)
	}
	yield := ""
	if o.coldLocked().yieldUntil != 0 {
		yield = " yield"
	}
	return fmt.Sprintf("%s v%d %v%s", data, o.TVersion(), o.TState(), yield)
}

// coldEntry is the side table's entry for o, looked up whatever o's cold bits
// say.
func coldEntry(o *Object) (coldState, bool) { return coldTable.Get(o) }

// coldInStep reports whether the side table holds an entry for o iff it holds
// a yield or an arbitration, and o's cold bits say which.
func coldInStep(o *Object) bool {
	c, ok := coldEntry(o)
	return ok == (o.ostate&coldBits != 0) &&
		(o.ostate&hasYield != 0) == (c.yieldUntil != 0) &&
		(o.ostate&hasPending != 0) == c.arbitrating
}

// TestObjectTransitions is the pre-state → post-state table of the value-side
// transitions (store package doc), and of the transfer-fairness yield that
// the side table holds beside the record. Pre-states are themselves built from transitions,
// so every row is a reachable history.
func TestObjectTransitions(t *testing.T) {
	b := func(s string) []byte { return []byte(s) }
	// valid3 is a replica holding committed version 3; write4 and invalid4 are
	// that replica after the owner's local commit resp. a follower's R-INV.
	valid3 := func(o *Object) { o.installLocked(3, b("a")) }
	write4 := func(o *Object) { valid3(o); o.StageLocked(b("b")) }
	invalid4 := func(o *Object) { valid3(o); o.StageInvLocked(4, b("b")) }
	// yielding is an owner that just NACKed a mover; yielded one whose yield
	// has run out.
	yielding := func(o *Object) { o.YieldLocalLocked(time.Hour) }
	yielded := func(o *Object) { o.YieldLocalLocked(-time.Nanosecond) }
	exactly := func(n float64) *float64 { return &n }

	for _, tc := range []struct {
		name string
		pre  func(*Object)
		do   func(*Object)
		want string
		// allocs, when set, is what do allocates, each run on a fresh
		// pre-state; AllocsPerRun's warm-up run has made the stripe's map.
		allocs *float64
	}{
		{name: "stage: the owner's local commit mints the next version",
			pre: valid3,
			do: func(o *Object) {
				if ver := o.StageLocked(b("b")); ver != 4 {
					t.Errorf("StageLocked minted v%d, want v4", ver)
				}
			},
			want: "b v4 Write"},
		{name: "stage: an R-INV replaces the payload and invalidates",
			pre: valid3, do: func(o *Object) { o.StageInvLocked(4, b("b")) },
			want: "b v4 Invalid"},
		{name: "stage: a stale R-INV leaves payload and word alone",
			pre:  func(o *Object) { o.installLocked(5, b("c")) },
			do:   func(o *Object) { o.StageInvLocked(4, b("b")) },
			want: "c v5 Valid"},
		{name: "stage: a duplicate R-INV changes nothing",
			pre: invalid4, do: func(o *Object) { o.StageInvLocked(4, b("dup")) },
			want: "b v4 Invalid"},
		{name: "validate: the owner's slot completes",
			pre: write4, do: func(o *Object) { o.ValidateLocked(4, TWrite) },
			want: "b v4 Valid"},
		{name: "validate: a superseded slot leaves the word to the later write",
			pre:  func(o *Object) { write4(o); o.StageLocked(b("c")) },
			do:   func(o *Object) { o.ValidateLocked(4, TWrite) },
			want: "c v5 Write"},
		{name: "validate: a slot completing on a record dropped since it was staged changes nothing",
			pre:  func(o *Object) { write4(o); o.dropLocked() },
			do:   func(o *Object) { o.ValidateLocked(4, TWrite) },
			want: "nil v0 Valid"},
		{name: "validate: an R-VAL flips the version it names",
			pre: invalid4, do: func(o *Object) { o.ValidateLocked(4, TInvalid) },
			want: "b v4 Valid"},
		{name: "validate: the wrong version is a no-op",
			pre: invalid4, do: func(o *Object) { o.ValidateLocked(3, TInvalid) },
			want: "b v4 Invalid"},
		{name: "validate: the wrong from-state is a no-op",
			pre: write4, do: func(o *Object) { o.ValidateLocked(4, TInvalid) },
			want: "b v4 Write"},
		{name: "install: a shipped value arrives whole",
			pre: func(*Object) {}, do: func(o *Object) { o.installLocked(7, b("d")) },
			want: "d v7 Valid"},
		{name: "recover: an Invalid hint with no yield",
			pre: func(o *Object) { invalid4(o); yielding(o) },
			do: func(o *Object) {
				o.RecoverLocked(0, 5, b("c"), wire.OTS{}, wire.ReplicaSet{})
				if _, ok := coldEntry(o); ok {
					t.Error("recovery kept a side-table entry it had nothing to put in")
				}
			},
			want: "c v5 Invalid"},
		{name: "recover: the hint is served once validated",
			pre:  func(o *Object) { o.RecoverLocked(0, 5, b("c"), wire.OTS{}, wire.ReplicaSet{}) },
			do:   func(o *Object) { o.ValidateLocked(o.TSnapshot()) },
			want: "c v5 Valid"},
		{name: "drop: nothing of the replica is left to read, and no yield",
			pre: func(o *Object) { invalid4(o); yielding(o) },
			do: func(o *Object) {
				o.dropLocked()
				if _, ok := coldEntry(o); ok {
					t.Error("a dropped replica kept its side-table entry")
				}
			},
			want: "nil v0 Valid"},
		{name: "yield: the first one is a side-table entry, which allocates nothing",
			pre: func(o *Object) { o.installLocked(1, b("seed")) }, do: yielding,
			want: "seed v1 Valid yield", allocs: exactly(0)},
		{name: "yield: one after a settled yield takes a new entry",
			pre: func(o *Object) { o.installLocked(1, b("seed")) },
			do: func(o *Object) {
				yielded(o)
				o.GrantLocalLocked(3)
				o.ReleaseLocal(3)
				yielding(o)
			},
			want: "seed v1 Valid yield", allocs: exactly(0)},
		{name: "yield: a second one overwrites the entry",
			pre: func(o *Object) { valid3(o); yielding(o) }, do: yielding,
			want: "a v3 Valid yield", allocs: exactly(0)},
		{name: "yield: a new local grant is refused while it lasts",
			pre: yielding,
			do: func(o *Object) {
				if o.GrantLocalLocked(3) {
					t.Error("new local grant during the yield")
				}
			},
			want: "nil v0 Valid yield", allocs: exactly(0)},
		{name: "yield: the worker that holds the object releases it as usual",
			pre: func(o *Object) { o.GrantLocalLocked(3); yielding(o) },
			do: func(o *Object) {
				o.ReleaseLocal(3)
				if o.LocalOwnerLocked() != NoLocalOwner {
					t.Error("ReleaseLocal kept the object")
				}
			},
			want: "nil v0 Valid yield", allocs: exactly(0)},
		{name: "yield: the first grant after it ran out clears it, and the entry it alone held",
			pre: yielded,
			do: func(o *Object) {
				if !o.GrantLocalLocked(3) {
					t.Error("local grant refused after the yield ran out")
				}
				if _, ok := coldEntry(o); ok {
					t.Error("an expired yield left its side-table entry behind")
				}
			},
			want: "nil v0 Valid", allocs: exactly(0)},
	} {
		fresh := func() *Object {
			o, _ := New().GetOrCreate(1)
			tc.pre(o)
			return o
		}
		o := fresh()
		tc.do(o)
		if got := valueSide(o); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		if !coldInStep(o) {
			t.Errorf("%s: the side table and the cold bits disagree", tc.name)
		}
		if tc.allocs != nil {
			const runs = 20
			objs := make([]*Object, runs+1) // AllocsPerRun warms up with one more run
			for i := range objs {
				objs[i] = fresh()
			}
			n := 0
			if got := testing.AllocsPerRun(runs, func() { tc.do(objs[n]); n++ }); got != *tc.allocs {
				t.Errorf("%s: allocates %v, want %v", tc.name, got, *tc.allocs)
			}
		}
	}
}

// TestColdEntriesLastOnlyWhileNeeded: the side table holds an entry for a
// record only while it yields or arbitrates, so every way a yield or an
// arbitration ends leaves none behind; and records of one stripe yield and
// arbitrate at once, each under its own Mu (run it under -race).
func TestColdEntriesLastOnlyWhileNeeded(t *testing.T) {
	const self = wire.NodeID(1)
	set := func(owner wire.NodeID, readers ...wire.NodeID) wire.ReplicaSet {
		return wire.ReplicaSet{Owner: owner, Readers: wire.BitmapOf(readers...)}
	}
	// move takes ownership from node 1 to node 2; share adds reader 3.
	move := PendingOwn{ReqID: 7, TS: wire.OTS{Ver: 2}, Requester: 2, Mode: wire.AcquireOwner,
		NewReplicas: set(2, 0, 1), PrevOwner: 1, Arbiters: wire.BitmapOf(0, 1, 2)}
	share := move
	share.Requester, share.Mode, share.NewReplicas = 3, wire.AcquireReader, set(1, 0, 2, 3)
	owner := func(o *Object) {
		o.GrantLocked(self, wire.OTS{Ver: 1}, set(1, 0, 2), Shipped{Has: true, Version: 1, Data: []byte("a")})
	}
	for _, tc := range []struct {
		name string
		pre  func(o *Object)
		end  func(s *Store, o *Object)
	}{
		{"an expired yield's next local grant",
			func(o *Object) { owner(o); o.YieldLocalLocked(-time.Nanosecond) },
			func(_ *Store, o *Object) {
				if !o.GrantLocalLocked(3) {
					t.Error("local grant refused after the yield ran out")
				}
			}},
		{"a VAL that settles an arbitration",
			func(o *Object) { owner(o); o.InvalidateLocked(share, self) },
			func(_ *Store, o *Object) { o.GrantPendingLocked(self) }},
		{"a VAL that moves ownership away over a yield",
			func(o *Object) { owner(o); o.YieldLocalLocked(time.Hour); o.InvalidateLocked(move, self) },
			func(_ *Store, o *Object) { o.GrantPendingLocked(self) }},
		{"a stale arbitration's VAL",
			func(o *Object) {
				owner(o)
				o.InvalidateLocked(move, self)
				o.AdoptEntryLocked(wire.OTS{Ver: 3}, set(1, 0, 2)) // refused: pending
				o.setOTSLocked(wire.OTS{Ver: 3})                   // o_ts passed the arbitration
			},
			func(_ *Store, o *Object) {
				if _, applied := o.GrantPendingLocked(self); applied {
					t.Error("applied an arbitration o_ts has passed")
				}
			}},
		{"a drop",
			func(o *Object) { owner(o); o.YieldLocalLocked(time.Hour); o.DriveLocked(move) },
			func(_ *Store, o *Object) { o.GrantLocked(self, wire.OTS{Ver: 5}, set(2, 0), Shipped{}) }},
		{"a recovery",
			func(o *Object) { owner(o); o.YieldLocalLocked(time.Hour); o.DriveLocked(move) },
			func(_ *Store, o *Object) { o.RecoverLocked(self, 1, nil, wire.OTS{Ver: 1}, set(1, 0)) }},
		{"Store.Delete",
			func(o *Object) { owner(o); o.YieldLocalLocked(time.Hour); o.InvalidateLocked(move, self) },
			func(s *Store, o *Object) {
				o.Mu.Unlock()
				s.Delete(o.ID)
				o.Mu.Lock()
			}},
	} {
		s := New()
		o, _ := s.GetOrCreate(1)
		o.Mu.Lock()
		tc.pre(o)
		if _, ok := coldEntry(o); !ok {
			t.Fatalf("%s: the pre-state has no side-table entry", tc.name)
		}
		tc.end(s, o)
		if c, ok := coldEntry(o); ok || o.ostate&coldBits != 0 {
			t.Errorf("%s: left entry %+v (present %v), cold bits %#x", tc.name, c, ok, o.ostate&coldBits)
		}
		o.Mu.Unlock()
	}

	// Concurrent: each goroutine moves its own records of one stripe away and
	// back, yielding on the way; the records end owned here with nothing cold.
	// The ids are multiples of 1 024, the most stripes there are: a multiple
	// of an odd constant, their hashes share their low ten bits, all zero.
	const goroutines, perG, rounds = 4, 4, 300
	s := New()
	var objs []*Object
	for id := wire.ObjectID(0); len(objs) < goroutines*perG; id += 1024 {
		o, _ := s.GetOrCreate(id)
		objs = append(objs, o)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(mine []*Object) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, o := range mine {
					ts := func(k uint64) wire.OTS { return wire.OTS{Ver: uint64(r)*3 + k} }
					away, back := move, move
					away.TS = ts(2)
					back.TS, back.NewReplicas = ts(3), set(1, 0, 2)
					o.Mu.Lock()
					o.GrantLocked(self, ts(1), set(1, 0, 2), Shipped{Has: true, Version: uint64(r) + 1})
					o.YieldLocalLocked(time.Hour)
					o.InvalidateLocked(away, self)
					o.GrantPendingLocked(self) // ownership leaves: no yield, no arbitration
					o.DriveLocked(back)
					o.GrantPendingLocked(self)
					ok := coldInStep(o)
					o.Mu.Unlock()
					if !ok {
						t.Errorf("object %d round %d: the side table and the cold bits disagree", o.ID, r)
						return
					}
				}
			}
		}(objs[g*perG : (g+1)*perG])
	}
	wg.Wait()
	for _, o := range objs {
		if c, ok := coldEntry(o); ok {
			t.Errorf("object %d: entry %+v left after its last arbitration", o.ID, c)
		}
	}
}
