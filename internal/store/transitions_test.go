package store

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"zeus/internal/wire"
)

// valueSide renders ⟨data, version, state, CTS, ring⟩ — everything the five
// transitions own — as one comparable line; ring entries read cts:version:data,
// and a recorded transfer-fairness yield, expired or not, adds " yield".
func valueSide(o *Object) string {
	ring := make([]string, len(o.ringForTest()))
	for i, e := range o.ringForTest() {
		ring[i] = entryString(e)
	}
	data := "nil"
	if o.data != "" {
		data = o.data
	}
	yield := ""
	if o.cold != nil && o.cold.yieldUntil != 0 {
		yield = " yield"
	}
	return fmt.Sprintf("%s v%d %v cts%d [%s]%s", data, o.TVersion(), o.TState(), o.CommitCTSLocked(), strings.Join(ring, " "), yield)
}

// ringForTest is the ring a test inspects: empty without a cold record.
func (o *Object) ringForTest() []VersionEntry {
	if o.cold == nil {
		return nil
	}
	return o.cold.ring
}

func entryString(e VersionEntry) string {
	return fmt.Sprintf("%d:%d:%s", e.CTS, e.Version, e.Data)
}

// coldSettled reports whether cold is nil iff it holds nothing: a record that
// would read like none has gone back to coldPool.
func coldSettled(o *Object) bool {
	c := o.cold
	return c == nil || c.commitCTS != 0 || len(c.ring) != 0 || c.yieldUntil != 0 || c.pending != nil
}

// TestObjectTransitions is the pre-state → post-state table of the value-side
// transitions (store package doc), and of the transfer-fairness yield that
// shares their cold record. Pre-states are themselves built from transitions,
// so every row is a reachable history.
func TestObjectTransitions(t *testing.T) {
	b := func(s string) []byte { return []byte(s) }
	// valid3 is a replica holding committed version 3; write4 and invalid4 are
	// that replica after the owner's local commit resp. a follower's R-INV.
	valid3 := func(o *Object) { o.installLocked(30, 3, b("a")) }
	write4 := func(o *Object) { valid3(o); o.StageLocked(b("b")) }
	invalid4 := func(o *Object) { valid3(o); o.StageInvLocked(40, 4, b("b")) }
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
		// readAt, when non-zero, is a snapshot timestamp read after do;
		// wantRead is the entry RingReadLocked serves, "none" for ok=false.
		readAt   uint64
		wantRead string
		// allocs, when set, is what do allocates, each run on a fresh pre-state
		// and coldPool emptied first. Under -race a sync.Pool drops a quarter
		// of its Puts, which costs a reusing row one more allocation in those
		// runs; AllocsPerRun's whole-number average still reads the same.
		allocs *float64
	}{
		{name: "stage: the owner's local commit mints the next version, no ring entry yet",
			pre: valid3,
			do: func(o *Object) {
				if ver := o.StageLocked(b("b")); ver != 4 {
					t.Errorf("StageLocked minted v%d, want v4", ver)
				}
			},
			want:   "b v4 Write cts30 [30:3:a]",
			readAt: 99, wantRead: "30:3:a"},
		{name: "stage: an R-INV replaces the payload, invalidates and publishes",
			pre: valid3, do: func(o *Object) { o.StageInvLocked(40, 4, b("b")) },
			want:   "b v4 Invalid cts40 [30:3:a 40:4:b]",
			readAt: 39, wantRead: "30:3:a"},
		{name: "stage: a stale R-INV leaves payload and word alone but is still history",
			pre:  func(o *Object) { o.installLocked(50, 5, b("c")) },
			do:   func(o *Object) { o.StageInvLocked(40, 4, b("b")) },
			want: "c v5 Valid cts50 [40:4:b 50:5:c]"},
		{name: "stage: a duplicate R-INV changes nothing",
			pre: invalid4, do: func(o *Object) { o.StageInvLocked(40, 4, b("dup")) },
			want: "b v4 Invalid cts40 [30:3:a 40:4:b]"},
		{name: "validate: the owner's slot completes",
			pre: write4, do: func(o *Object) { o.ValidateWriteLocked(40, 4, b("b")) },
			want:   "b v4 Valid cts40 [30:3:a 40:4:b]",
			readAt: 40, wantRead: "40:4:b"},
		{name: "validate: a superseded slot publishes its version and leaves the word to the later write",
			pre:  func(o *Object) { write4(o); o.StageLocked(b("c")) },
			do:   func(o *Object) { o.ValidateWriteLocked(40, 4, b("b")) },
			want: "c v5 Write cts40 [30:3:a 40:4:b]"},
		{name: "validate: a slot completing on a record dropped since it was staged publishes nothing",
			pre:  func(o *Object) { write4(o); o.dropLocked() },
			do:   func(o *Object) { o.ValidateWriteLocked(40, 4, b("b")) },
			want: "nil v0 Valid cts0 []"},
		{name: "validate: an R-VAL flips the version it names",
			pre: invalid4, do: func(o *Object) { o.ValidateLocked(4, TInvalid) },
			want: "b v4 Valid cts40 [30:3:a 40:4:b]"},
		{name: "validate: the wrong version is a no-op",
			pre: invalid4, do: func(o *Object) { o.ValidateLocked(3, TInvalid) },
			want: "b v4 Invalid cts40 [30:3:a 40:4:b]"},
		{name: "validate: the wrong from-state is a no-op",
			pre: write4, do: func(o *Object) { o.ValidateLocked(4, TInvalid) },
			want: "b v4 Write cts30 [30:3:a]"},
		{name: "install: a shipped value arrives whole",
			pre: func(*Object) {}, do: func(o *Object) { o.installLocked(70, 7, b("d")) },
			want:   "d v7 Valid cts70 [70:7:d]",
			readAt: 69, wantRead: "none"},
		{name: "install: the shipped CTS is taken as given, even below the record's",
			pre:  func(o *Object) { o.installLocked(50, 5, b("c")) },
			do:   func(o *Object) { o.installLocked(45, 6, b("d")) },
			want: "d v6 Valid cts45 [50:5:c 45:6:d]"},
		{name: "install: without a timestamp nothing is published",
			pre: func(*Object) {}, do: func(o *Object) { o.installLocked(0, 1, b("seed")) },
			want:   "seed v1 Valid cts0 []",
			readAt: 1, wantRead: "0:1:seed"},
		{name: "install: without a timestamp over a recovered one, the cold record goes back",
			pre:  func(o *Object) { o.RecoverLocked(0, 50, 5, b("c"), wire.OTS{}, wire.ReplicaSet{}) },
			do:   func(o *Object) { o.installLocked(0, 6, b("d")) },
			want: "d v6 Valid cts0 []"},
		{name: "recover: an Invalid hint with no history and no yield serves no snapshot",
			pre:    func(o *Object) { invalid4(o); yielding(o) },
			do:     func(o *Object) { o.RecoverLocked(0, 50, 5, b("c"), wire.OTS{}, wire.ReplicaSet{}) },
			want:   "c v5 Invalid cts50 []",
			readAt: 99, wantRead: "none"},
		{name: "recover: without a timestamp nothing of the record is kept",
			pre: yielding,
			do: func(o *Object) {
				o.RecoverLocked(0, 0, 5, b("c"), wire.OTS{}, wire.ReplicaSet{})
				if o.cold != nil {
					t.Error("recovery kept a cold record it had nothing to put in")
				}
			},
			want: "c v5 Invalid cts0 []"},
		{name: "recover: the kept CTS re-arms the implicit entry once validated",
			pre:    func(o *Object) { o.RecoverLocked(0, 50, 5, b("c"), wire.OTS{}, wire.ReplicaSet{}) },
			do:     func(o *Object) { o.ValidateLocked(o.TSnapshot()) },
			want:   "c v5 Valid cts50 []",
			readAt: 50, wantRead: "50:5:c"},
		{name: "drop: nothing of the replica is left to read, and no yield",
			pre: func(o *Object) { invalid4(o); yielding(o) },
			do: func(o *Object) {
				o.dropLocked()
				if o.cold != nil {
					t.Error("a dropped replica kept its cold record")
				}
			},
			want:   "nil v0 Valid cts0 []",
			readAt: math.MaxUint64, wantRead: "0:0:"},
		{name: "yield: the first one takes a cold record from the pool, new when it is empty, and it reads like none",
			pre: func(o *Object) { o.installLocked(0, 1, b("seed")) }, do: yielding,
			want:   "seed v1 Valid cts0 [] yield",
			readAt: 1, wantRead: "0:1:seed", allocs: exactly(1)},
		{name: "yield: the record a settled yield gave back is the one the next yield takes",
			pre: func(o *Object) { o.installLocked(0, 1, b("seed")) },
			do: func(o *Object) {
				yielded(o)
				o.GrantLocalLocked(3)
				o.ReleaseLocal(3)
				yielding(o)
			},
			want: "seed v1 Valid cts0 [] yield", allocs: exactly(1)},
		{name: "yield: a yield-only record over an Invalid hint serves nothing, as none does",
			pre: func(o *Object) { o.RecoverLocked(0, 0, 5, b("c"), wire.OTS{}, wire.ReplicaSet{}) }, do: yielding,
			want:   "c v5 Invalid cts0 [] yield",
			readAt: 99, wantRead: "none"},
		{name: "yield: a second one reuses the record, history included",
			pre: func(o *Object) { valid3(o); yielding(o) }, do: yielding,
			want: "a v3 Valid cts30 [30:3:a] yield", allocs: exactly(0)},
		{name: "yield: a new local grant is refused while it lasts",
			pre: yielding,
			do: func(o *Object) {
				if o.GrantLocalLocked(3) {
					t.Error("new local grant during the yield")
				}
			},
			want: "nil v0 Valid cts0 [] yield", allocs: exactly(0)},
		{name: "yield: the worker that holds the object releases it as usual",
			pre: func(o *Object) { o.GrantLocalLocked(3); yielding(o) },
			do: func(o *Object) {
				o.ReleaseLocal(3)
				if o.LocalOwnerLocked() != NoLocalOwner {
					t.Error("ReleaseLocal kept the object")
				}
			},
			want: "nil v0 Valid cts0 [] yield", allocs: exactly(0)},
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
			want: "nil v0 Valid cts0 []", allocs: exactly(0)},
		{name: "yield: a record that also holds a history outlives its expired yield",
			pre: func(o *Object) { valid3(o); yielded(o) },
			do: func(o *Object) {
				if !o.GrantLocalLocked(3) {
					t.Error("local grant refused after the yield ran out")
				}
			},
			want:   "a v3 Valid cts30 [30:3:a]",
			readAt: 30, wantRead: "30:3:a", allocs: exactly(0)},
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
		if tc.readAt != 0 {
			got := "none"
			if e, ok := o.RingReadLocked(tc.readAt); ok {
				got = entryString(e)
			}
			if got != tc.wantRead {
				t.Errorf("%s: snapshot read at %d serves %s, want %s", tc.name, tc.readAt, got, tc.wantRead)
			}
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

// TestRingNeverAheadOfWord drives random transition sequences and checks after
// every step what the deleted ringpublish analyzer approximated lexically: no
// ring entry's version exceeds t_version, entries are strictly version-sorted,
// and the ring (array included) never exceeds DefaultRingEntries; and that
// the cold record is nil iff it holds nothing. Versions are
// drawn around the current one, stale and ahead alike; installLocked alone
// keeps its documented precondition (never below t_version).
func TestRingNeverAheadOfWord(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := &Object{}
		var trail []string
		for step := 0; step < 400; step++ {
			cur := o.TVersion()
			near := cur + uint64(rng.Intn(6))
			if near >= 3 {
				near -= 3 // cur-3 … cur+2
			}
			cts := uint64(rng.Intn(1000)) // 0 = no timestamp, now and then
			data := []byte{byte(step)}
			var op string
			switch r := rng.Intn(20); { // resets are rare enough for rings to fill up in between
			case r < 5:
				op = "stage"
				o.StageLocked(data)
			case r < 10:
				op = fmt.Sprintf("stage-inv(%d,%d)", cts, near)
				o.StageInvLocked(cts, near, data)
			case r < 14:
				op = fmt.Sprintf("validate-write(%d,%d)", cts, near)
				o.ValidateWriteLocked(cts, near, data)
			case r < 16:
				from := TState(rng.Intn(3))
				op = fmt.Sprintf("validate(%d,%v)", near, from)
				o.ValidateLocked(near, from)
			case r < 18:
				ver := cur + uint64(rng.Intn(3))
				op = fmt.Sprintf("install(%d,%d)", cts, ver)
				o.installLocked(cts, ver, data)
			case r < 19:
				op = fmt.Sprintf("recover(%d,%d)", cts, near)
				o.RecoverLocked(0, cts, near, data, wire.OTS{}, wire.ReplicaSet{})
			default:
				op = "drop"
				o.dropLocked()
			}
			trail = append(trail, op)
			bad, ring := "", o.ringForTest()
			if !coldSettled(o) {
				bad = "a cold record that holds nothing was kept"
			}
			if len(ring) > DefaultRingEntries || cap(ring) > DefaultRingEntries {
				bad = fmt.Sprintf("ring holds %d entries in %d slots", len(ring), cap(ring))
			}
			for i, e := range ring {
				if e.Version > o.TVersion() {
					bad = fmt.Sprintf("ring entry v%d is ahead of t_version %d", e.Version, o.TVersion())
				}
				if i > 0 && ring[i-1].Version >= e.Version {
					bad = fmt.Sprintf("ring not strictly version-sorted at %d", i)
				}
			}
			if bad != "" {
				last := trail[max(0, len(trail)-8):]
				t.Fatalf("seed %d step %d: %s — %s; last ops %v", seed, step, bad, valueSide(o), last)
			}
		}
	}
}
