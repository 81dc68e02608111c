package store

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"zeus/internal/wire"
)

// valueSide renders ⟨data, version, state⟩ — everything the transitions own —
// as one comparable line; a recorded transfer-fairness yield, expired or not,
// adds " yield".
func valueSide(o *Object) string {
	data := "nil"
	if o.data != "" {
		data = o.data
	}
	yield := ""
	if o.cold != nil && o.cold.yieldUntil != 0 {
		yield = " yield"
	}
	return fmt.Sprintf("%s v%d %v%s", data, o.TVersion(), o.TState(), yield)
}

// coldSettled reports whether cold is nil iff it holds nothing: a record that
// would read like none has gone back to coldPool.
func coldSettled(o *Object) bool {
	c := o.cold
	return c == nil || c.yieldUntil != 0 || c.pending != nil
}

// TestObjectTransitions is the pre-state → post-state table of the value-side
// transitions (store package doc), and of the transfer-fairness yield that
// shares their cold record. Pre-states are themselves built from transitions,
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
		// allocs, when set, is what do allocates, each run on a fresh pre-state
		// and coldPool emptied first. Under -race a sync.Pool drops a quarter
		// of its Puts, which costs a reusing row one more allocation in those
		// runs; AllocsPerRun's whole-number average still reads the same.
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
				if o.cold != nil {
					t.Error("recovery kept a cold record it had nothing to put in")
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
				if o.cold != nil {
					t.Error("a dropped replica kept its cold record")
				}
			},
			want: "nil v0 Valid"},
		{name: "yield: the first one takes a cold record from the pool, new when it is empty",
			pre: func(o *Object) { o.installLocked(1, b("seed")) }, do: yielding,
			want: "seed v1 Valid yield", allocs: exactly(1)},
		{name: "yield: the record a settled yield gave back is the one the next yield takes",
			pre: func(o *Object) { o.installLocked(1, b("seed")) },
			do: func(o *Object) {
				yielded(o)
				o.GrantLocalLocked(3)
				o.ReleaseLocal(3)
				yielding(o)
			},
			want: "seed v1 Valid yield", allocs: exactly(1)},
		{name: "yield: a second one reuses the record",
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
		{name: "yield: the first grant after it ran out clears it, and the record it alone held",
			pre: yielded,
			do: func(o *Object) {
				if !o.GrantLocalLocked(3) {
					t.Error("local grant refused after the yield ran out")
				}
				if o.cold != nil {
					t.Error("an expired yield left its cold record behind")
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
		if !coldSettled(o) {
			t.Errorf("%s: kept a cold record that holds nothing", tc.name)
		}
		if tc.allocs != nil {
			const runs = 20
			objs := make([]*Object, runs+1) // AllocsPerRun warms up with one more run
			for i := range objs {
				objs[i] = fresh()
			}
			runtime.GC() // a pool survives one collection, in its victim cache
			runtime.GC()
			n := 0
			if got := testing.AllocsPerRun(runs, func() { tc.do(objs[n]); n++ }); got != *tc.allocs {
				t.Errorf("%s: allocates %v, want %v", tc.name, got, *tc.allocs)
			}
		}
	}
}
