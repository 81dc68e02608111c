package store

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"zeus/internal/wire"
)

// ownerSide renders ⟨level, o_state, o_ts, o_replicas, pending⟩ — everything
// the ownership-side transitions own — as one comparable line. A set reads
// owner[readers], "-" for no owner; a pending record
// req<id>@<ts>-><new set> arb<arbiters> src<prev owner> ep<epoch>.
func ownerSide(o *Object) string {
	pend := "-"
	if p, ok := o.PendingLocked(); ok {
		pend = fmt.Sprintf("req%d@%d.%d->%s arb%v src%s ep%d", p.ReqID, p.TS.Ver, p.TS.Node,
			setString(p.NewReplicas), p.Arbiters, nodeString(p.PrevOwner), p.Epoch)
	}
	return fmt.Sprintf("%v %v %d.%d %s %s", o.level, o.OStateLocked(), o.otsVer, o.otsNode, setString(o.ReplicasLocked()), pend)
}

func setString(r wire.ReplicaSet) string { return nodeString(r.Owner) + r.Readers.String() }

func nodeString(n wire.NodeID) string {
	if n == wire.NoNode {
		return "-"
	}
	return strconv.Itoa(int(n))
}

// TestOwnershipTransitions is the pre-state → post-state table of the
// ownership-side transitions (store package doc), as seen from node 1.
// Pre-states are themselves built from transitions, so every row is a
// reachable history; both sides of the record are compared, because a grant
// moves the value with the level.
func TestOwnershipTransitions(t *testing.T) {
	const self = wire.NodeID(1)
	b := func(s string) []byte { return []byte(s) }
	ts := func(ver uint64, node wire.NodeID) wire.OTS { return wire.OTS{Ver: ver, Node: node} }
	set := func(owner wire.NodeID, readers ...wire.NodeID) wire.ReplicaSet {
		return wire.ReplicaSet{Owner: owner, Readers: wire.BitmapOf(readers...)}
	}
	ships := func(ver uint64, data string) Shipped {
		return Shipped{Has: true, Version: ver, Data: b(data)}
	}
	fresh := func(*Object) {}
	// owner3 / reader3: node 1 owns, resp. reads, committed version 3 under
	// o_ts 3.0; recovered5 is node 1 restarted over a WAL that says it owned v5.
	owner3 := func(o *Object) { o.GrantLocked(self, ts(3, 0), set(1, 0, 2), ships(3, "a")) }
	reader3 := func(o *Object) { o.GrantLocked(self, ts(3, 0), set(0, 1, 2), ships(3, "a")) }
	recovered5 := func(o *Object) { o.RecoverLocked(self, 5, b("c"), ts(7, 1), set(1, 0)) }
	// move7 is the arbitration node 1 drives for node 2's acquisition; move9
	// the one node 2 drives for node 0's, which beats it (4.2 > 4.1); drop8
	// removes reader 1.
	move7 := PendingOwn{ReqID: 7, TS: ts(4, 1), Requester: 2, Driver: 1, Mode: wire.AcquireOwner,
		NewReplicas: set(2, 0, 1), PrevOwner: 1, Arbiters: wire.BitmapOf(0, 1, 2), Epoch: 5}
	move9 := PendingOwn{ReqID: 9, TS: ts(4, 2), Requester: 0, Driver: 2, Mode: wire.AcquireOwner,
		NewReplicas: set(0, 1, 2), PrevOwner: 1, Arbiters: wire.BitmapOf(0, 1, 2), Epoch: 5}
	drop8 := PendingOwn{ReqID: 8, TS: ts(4, 0), Requester: 0, Driver: 0, Mode: wire.DropReader,
		NewReplicas: set(0, 2), PrevOwner: 0, Arbiters: wire.BitmapOf(0, 1), Epoch: 5}
	const (
		move7s = "req7@4.1->2[0 1] arb[0 1 2] src1 ep5"
		move9s = "req9@4.2->0[1 2] arb[0 1 2] src1 ep5"
		a3     = "a v3 Valid"
		none   = "nil v0 Valid"
	)

	for _, tc := range []struct {
		name      string
		pre       func(*Object)
		do        func(*testing.T, *Object)
		want      string // ownerSide
		wantValue string // valueSide
	}{
		{name: "request: a node's own request is marked, and unmarked when given up",
			pre: reader3,
			do: func(t *testing.T, o *Object) {
				o.RequestLocked()
				if !o.HoldsLocked(wire.Reader) || o.HoldsLocked(wire.Owner) || o.OStateLocked() != ORequest {
					t.Errorf("requesting reader: %s", ownerSide(o))
				}
				o.SettleRequestLocked()
			},
			want: "reader Valid 3.0 0[1 2] -", wantValue: a3},
		{name: "request: a request states the version held Valid",
			pre: reader3,
			do: func(t *testing.T, o *Object) {
				if holds := o.RequestLocked(); holds != 3 {
					t.Errorf("RequestLocked = %d, want 3", holds)
				}
				o.SettleRequestLocked()
			},
			want: "reader Valid 3.0 0[1 2] -", wantValue: a3},
		{name: "request: a value awaiting its R-VAL is not held",
			pre: func(o *Object) { reader3(o); o.StageInvLocked(5, b("c")) },
			do: func(t *testing.T, o *Object) {
				if holds := o.RequestLocked(); holds != 0 {
					t.Errorf("RequestLocked = %d, want 0", holds)
				}
				o.SettleRequestLocked()
			},
			want: "reader Valid 3.0 0[1 2] -", wantValue: "c v5 Invalid"},
		{name: "request: a value an arbitration may drop is not held",
			pre: func(o *Object) { reader3(o); o.InvalidateLocked(drop8, self) },
			do: func(t *testing.T, o *Object) {
				if holds := o.RequestLocked(); holds != 0 {
					t.Errorf("RequestLocked = %d, want 0", holds)
				}
			},
			want: "reader Invalid 3.0 0[1 2] req8@4.0->0[2] arb[0 1] src0 ep5", wantValue: "a v3 Valid+leaving"},
		{name: "request: a recovered hint is not held",
			pre: recovered5,
			do: func(t *testing.T, o *Object) {
				if holds := o.RequestLocked(); holds != 0 {
					t.Errorf("RequestLocked = %d, want 0", holds)
				}
				o.SettleRequestLocked()
			},
			want: "non-replica Valid 7.1 -[0] -", wantValue: "c v5 Invalid"},
		{name: "request: an arbitration holding the entry is left alone",
			pre:  func(o *Object) { owner3(o); o.DriveLocked(move7) },
			do:   func(_ *testing.T, o *Object) { o.RequestLocked(); o.SettleRequestLocked() },
			want: "owner Drive 3.0 1[0 2] " + move7s, wantValue: a3},
		{name: "arbitrate: a driver records its arbitration and keeps its level",
			pre: owner3,
			do: func(t *testing.T, o *Object) {
				o.DriveLocked(move7)
				if o.HoldsLocked(wire.Reader) {
					t.Error("a driving owner still acts on the object")
				}
			},
			want: "owner Drive 3.0 1[0 2] " + move7s, wantValue: a3},
		{name: "arbitrate: a drive shares the side-table entry with a yield, and keeps it",
			pre:  func(o *Object) { owner3(o); o.YieldLocalLocked(time.Hour) },
			do:   func(_ *testing.T, o *Object) { o.DriveLocked(move7) },
			want: "owner Drive 3.0 1[0 2] " + move7s, wantValue: a3 + " yield"},
		{name: "arbitrate: an INV over a yield-only record keeps the yield",
			pre:  func(o *Object) { o.YieldLocalLocked(time.Hour) },
			do:   func(_ *testing.T, o *Object) { o.InvalidateLocked(move9, self) },
			want: "non-replica Invalid 0.0 -[] " + move9s, wantValue: none + " yield"},
		{name: "arbitrate: an INV over a driven smaller-ts request returns the loser's copy and demotes the owner",
			pre: func(o *Object) { owner3(o); o.DriveLocked(move7) },
			do: func(t *testing.T, o *Object) {
				if loser, lost := o.InvalidateLocked(move9, self); !lost || loser != move7 {
					t.Errorf("loser = %+v, %v; want request 7", loser, lost)
				}
			},
			want: "reader Invalid 3.0 1[0 2] " + move9s, wantValue: a3},
		{name: "arbitrate: a duplicate INV loses nobody and changes nothing",
			pre: func(o *Object) { owner3(o); o.InvalidateLocked(move9, self) },
			do: func(t *testing.T, o *Object) {
				if _, lost := o.InvalidateLocked(move9, self); lost {
					t.Error("a duplicate INV reported a loser")
				}
			},
			want: "reader Invalid 3.0 1[0 2] " + move9s, wantValue: a3},
		{name: "arbitrate: an INV that leaves ownership here does not demote",
			pre: owner3,
			do: func(_ *testing.T, o *Object) {
				p := move9
				p.Mode, p.NewReplicas = wire.AcquireReader, set(1, 0, 2, 3)
				o.InvalidateLocked(p, self)
			},
			want: "owner Invalid 3.0 1[0 2] req9@4.2->1[0 2 3] arb[0 1 2] src1 ep5", wantValue: a3},
		{name: "arbitrate: a replica an INV drops is leaving: it keeps its value and serves nothing",
			pre:  reader3,
			do:   func(_ *testing.T, o *Object) { o.InvalidateLocked(drop8, self) },
			want: "reader Invalid 3.0 0[1 2] req8@4.0->0[2] arb[0 1] src0 ep5", wantValue: "a v3 Valid+leaving"},
		{name: "arbitrate: a leaving replica stays leaving through an R-INV and its R-VAL",
			pre: func(o *Object) { reader3(o); o.InvalidateLocked(drop8, self) },
			do: func(_ *testing.T, o *Object) {
				o.StageInvLocked(4, b("d"))
				o.ValidateLocked(4, TInvalid)
			},
			want: "reader Invalid 3.0 0[1 2] req8@4.0->0[2] arb[0 1] src0 ep5", wantValue: "d v4 Valid+leaving"},
		{name: "grant: a grant that keeps a leaving replica ends the leave",
			pre:  func(o *Object) { reader3(o); o.InvalidateLocked(drop8, self) },
			do:   func(_ *testing.T, o *Object) { o.GrantLocked(self, ts(5, 2), set(2, 0, 1), Shipped{}) },
			want: "reader Valid 5.2 2[0 1] -", wantValue: a3},
		{name: "grant: a VAL applying a pending grant that drops this node discards payload and version",
			pre: func(o *Object) { reader3(o); o.InvalidateLocked(drop8, self) },
			do: func(t *testing.T, o *Object) {
				if p, applied := o.GrantPendingLocked(self); !applied || p != drop8 {
					t.Errorf("GrantPendingLocked = %+v, %v", p, applied)
				}
			},
			want: "non-replica Valid 4.0 0[2] -", wantValue: none},
		{name: "grant: a VAL that drops this node takes the arbitration and the yield, and the side-table entry with them",
			pre: func(o *Object) { reader3(o); o.YieldLocalLocked(time.Hour); o.InvalidateLocked(drop8, self) },
			do: func(t *testing.T, o *Object) {
				o.GrantPendingLocked(self)
				if _, ok := coldEntry(o); ok {
					t.Error("a dropped replica kept its side-table entry")
				}
			},
			want: "non-replica Valid 4.0 0[2] -", wantValue: none},
		{name: "grant: a VAL that settles an entry that held only the arbitration deletes it",
			pre: func(o *Object) {
				o.GrantLocked(self, ts(3, 0), set(0, 1, 2), ships(3, "seed"))
				o.InvalidateLocked(move9, self)
			},
			do: func(t *testing.T, o *Object) {
				o.GrantPendingLocked(self)
				if _, ok := coldEntry(o); ok {
					t.Error("the settled arbitration left its side-table entry behind")
				}
			},
			want: "reader Valid 4.2 0[1 2] -", wantValue: "seed v3 Valid"},
		{name: "grant: a VAL with nothing pending applies nothing",
			pre: reader3,
			do: func(t *testing.T, o *Object) {
				if _, applied := o.GrantPendingLocked(self); applied {
					t.Error("applied a grant nobody arbitrated")
				}
			},
			want: "reader Valid 3.0 0[1 2] -", wantValue: a3},
		{name: "grant: a pending arbitration o_ts has passed is void",
			pre: func(o *Object) {
				recovered5(o)
				o.InvalidateLocked(move9, self) // 4.2, under the recovered 7.1
			},
			do: func(t *testing.T, o *Object) {
				if _, applied := o.GrantPendingLocked(self); applied {
					t.Error("applied an arbitration older than o_ts")
				}
			},
			want: "non-replica Valid 7.1 -[0] -", wantValue: "c v5 Invalid"},
		{name: "grant: an older o_ts is refused and nothing is touched",
			pre: func(o *Object) { owner3(o); o.DriveLocked(move7) },
			do: func(t *testing.T, o *Object) {
				if applied, _ := o.GrantLocked(self, ts(2, 5), set(0), ships(9, "z")); applied {
					t.Error("applied a grant older than o_ts")
				}
			},
			want: "owner Drive 3.0 1[0 2] " + move7s, wantValue: a3},
		{name: "grant: a grant older than the pending arbitration is refused, and the arbitration stays",
			pre: func(o *Object) { reader3(o); o.InvalidateLocked(move9, self) },
			do: func(t *testing.T, o *Object) {
				if applied, _ := o.GrantLocked(self, ts(4, 1), set(1, 0, 2), ships(4, "b")); applied {
					t.Error("applied a grant older than the pending arbitration")
				}
			},
			want: "reader Invalid 3.0 0[1 2] " + move9s, wantValue: a3},
		{name: "grant: a grant at o_ts with nothing pending still applies",
			pre: reader3,
			do: func(t *testing.T, o *Object) {
				if applied, _ := o.GrantLocked(self, ts(3, 0), set(0, 1), ships(3, "a")); !applied {
					t.Error("refused a grant at o_ts")
				}
			},
			want: "reader Valid 3.0 0[1] -", wantValue: a3},
		{name: "grant: a shipped value older than the local version keeps the local value",
			pre: func(o *Object) { reader3(o); o.StageInvLocked(5, b("c")); o.ValidateLocked(5, TInvalid) },
			do: func(_ *testing.T, o *Object) {
				o.GrantLocked(self, ts(4, 1), set(1, 0, 2), ships(4, "old"))
			},
			want: "owner Valid 4.1 1[0 2] -", wantValue: "c v5 Valid"},
		{name: "grant: a raise over a record that holds nothing, with a version reported and nothing shipped, is refused",
			pre: fresh,
			do: func(t *testing.T, o *Object) {
				if applied, unbacked := o.GrantLocked(self, ts(1, 0), set(0, 1), Shipped{Version: 3}); applied || !unbacked {
					t.Errorf("GrantLocked = %v, %v; want an unbacked refusal", applied, unbacked)
				}
			},
			want: "non-replica Valid 0.0 -[] -", wantValue: none},
		{name: "grant: a raise over an older value, with nothing shipped, is refused",
			pre: reader3,
			do: func(t *testing.T, o *Object) {
				if applied, unbacked := o.GrantLocked(self, ts(4, 1), set(1, 0, 2), Shipped{Version: 5}); applied || !unbacked {
					t.Errorf("GrantLocked = %v, %v; want an unbacked refusal", applied, unbacked)
				}
			},
			want: "reader Valid 3.0 0[1 2] -", wantValue: a3},
		{name: "grant: a raise over the version the source reports needs nothing shipped",
			pre: reader3,
			do: func(t *testing.T, o *Object) {
				if applied, unbacked := o.GrantLocked(self, ts(4, 1), set(1, 0, 2), Shipped{Version: 3}); !applied || unbacked {
					t.Errorf("GrantLocked = %v, %v", applied, unbacked)
				}
			},
			want: "owner Valid 4.1 1[0 2] -", wantValue: a3},
		{name: "grant: a raise whose source reports version 0 applies",
			pre: fresh,
			do: func(t *testing.T, o *Object) {
				if applied, unbacked := o.GrantLocked(self, ts(1, 1), set(1, 0), Shipped{}); !applied || unbacked {
					t.Errorf("GrantLocked = %v, %v", applied, unbacked)
				}
			},
			want: "owner Valid 1.1 1[0] -", wantValue: none},
		{name: "grant: the same level again below the reported version is not a raise",
			pre: func(o *Object) { o.GrantLocked(self, ts(1, 0), set(0, 1), Shipped{}) },
			do: func(t *testing.T, o *Object) {
				if applied, unbacked := o.GrantLocked(self, ts(2, 0), set(0, 1, 2), Shipped{Version: 3}); !applied || unbacked {
					t.Errorf("GrantLocked = %v, %v", applied, unbacked)
				}
			},
			want: "reader Valid 2.0 0[1 2] -", wantValue: none},
		{name: "grant: a shipped value arrives with the level",
			pre: fresh,
			do: func(t *testing.T, o *Object) {
				if applied, unbacked := o.GrantLocked(self, ts(4, 1), set(1, 0), ships(4, "b")); !applied || unbacked {
					t.Errorf("GrantLocked = %v, %v", applied, unbacked)
				}
			},
			want: "owner Valid 4.1 1[0] -", wantValue: "b v4 Valid"},
		{name: "grant: a set that does not list this node installs nothing",
			pre:  fresh,
			do:   func(_ *testing.T, o *Object) { o.GrantLocked(self, ts(1, 0), set(0), ships(1, "x")) },
			want: "non-replica Valid 1.0 0[] -", wantValue: none},
		{name: "grant: a delete at its driver leaves a bare entry",
			pre:  owner3,
			do:   func(_ *testing.T, o *Object) { o.GrantLocked(self, ts(4, 1), set(wire.NoNode), Shipped{}) },
			want: "non-replica Valid 4.1 -[] -", wantValue: none},
		{name: "grant: a newer grant supersedes a pending arbitration",
			pre:  func(o *Object) { recovered5(o); o.InvalidateLocked(move9, self) },
			do:   func(_ *testing.T, o *Object) { o.GrantLocked(self, ts(8, 0), set(0, 1), ships(5, "c")) },
			want: "reader Valid 8.0 0[1] -", wantValue: "c v5 Valid"},
		{name: "prune: the view change edits the set and the pending record alike",
			pre: func(o *Object) {
				owner3(o)
				p := move9
				p.PrevOwner = 0
				o.InvalidateLocked(p, self)
			},
			do:   func(_ *testing.T, o *Object) { o.PruneLocked(wire.BitmapOf(1, 2)) },
			want: "reader Invalid 3.0 1[2] req9@4.2->-[1 2] arb[1 2] src- ep5", wantValue: a3},
		{name: "prune: a replay re-stamps the pending record and hands out a copy",
			pre: func(o *Object) { owner3(o); o.DriveLocked(move7) },
			do: func(t *testing.T, o *Object) {
				want := move7
				want.Epoch, want.Arbiters = 6, wire.BitmapOf(0, 1)
				if p, ok := o.ReplayLocked(6, wire.BitmapOf(0, 1)); !ok || p != want {
					t.Errorf("replay copy = %+v, %v", p, ok)
				}
				if _, ok := new(Object).ReplayLocked(6, wire.BitmapOf(0, 1)); ok {
					t.Error("replayed an arbitration that is not there")
				}
			},
			want: "owner Drive 3.0 1[0 2] req7@4.1->2[0 1] arb[0 1] src1 ep6", wantValue: a3},
		{name: "recover: a remembered self-as-owner is rewritten",
			pre:  func(o *Object) { owner3(o); o.DriveLocked(move7) },
			do:   func(_ *testing.T, o *Object) { o.RecoverLocked(self, 5, b("c"), ts(7, 1), set(1, 0)) },
			want: "non-replica Valid 7.1 -[0] -", wantValue: "c v5 Invalid"},
		{name: "recover: neither the arbitration, the yield nor the side-table entry survives",
			pre: func(o *Object) { owner3(o); o.YieldLocalLocked(time.Hour); o.DriveLocked(move7) },
			do: func(t *testing.T, o *Object) {
				o.RecoverLocked(self, 5, b("c"), ts(7, 0), set(0, 1))
				if _, ok := coldEntry(o); ok {
					t.Error("recovery kept a side-table entry it had nothing to put in")
				}
			},
			want: "non-replica Valid 7.0 0[1] -", wantValue: "c v5 Invalid"},
		{name: "recover: another node's ownership is a hint like any other",
			pre:  fresh,
			do:   func(_ *testing.T, o *Object) { o.RecoverLocked(self, 5, b("c"), ts(7, 0), set(0, 1)) },
			want: "non-replica Valid 7.0 0[1] -", wantValue: "c v5 Invalid"},
		{name: "reclaim: the vouched-for recovered value is served again",
			pre:  recovered5,
			do:   func(_ *testing.T, o *Object) { o.ReclaimLocked(self, true) },
			want: "owner Valid 7.1 1[0] -", wantValue: "c v5 Valid"},
		{name: "reclaim: a recovered value that had not completed its commit stays Invalid",
			pre:  recovered5,
			do:   func(_ *testing.T, o *Object) { o.ReclaimLocked(self, false) },
			want: "owner Valid 7.1 1[0] -", wantValue: "c v5 Invalid"},
		{name: "reclaim: a pending arbitration keeps the entry until its VAL",
			pre: func(o *Object) { recovered5(o); o.InvalidateLocked(move9, self) },
			do: func(t *testing.T, o *Object) {
				o.ReclaimLocked(self, true)
				if o.HoldsLocked(wire.Reader) {
					t.Error("a reclaimed owner acts on an entry an arbitration holds")
				}
			},
			want: "owner Invalid 7.1 1[0] " + move9s, wantValue: "c v5 Valid"},
		{name: "adopt: a newer directory entry replaces the set and leaves the level alone",
			pre: reader3,
			do: func(t *testing.T, o *Object) {
				if !o.AdoptEntryLocked(ts(5, 2), set(2)) {
					t.Error("refused a newer entry")
				}
			},
			want: "reader Valid 5.2 2[] -", wantValue: a3},
		{name: "adopt: an entry that is not newer is refused",
			pre: reader3,
			do: func(t *testing.T, o *Object) {
				if o.AdoptEntryLocked(ts(3, 0), set(2)) {
					t.Error("adopted an entry at the same o_ts")
				}
			},
			want: "reader Valid 3.0 0[1 2] -", wantValue: a3},
		{name: "adopt: refused over a pending arbitration",
			pre: func(o *Object) { reader3(o); o.InvalidateLocked(move9, self) },
			do: func(t *testing.T, o *Object) {
				if o.AdoptEntryLocked(ts(20, 2), set(2)) {
					t.Error("adopted an entry over a pending arbitration")
				}
			},
			want: "reader Invalid 3.0 0[1 2] " + move9s, wantValue: a3},
	} {
		o, _ := New().GetOrCreate(1)
		tc.pre(o)
		tc.do(t, o)
		if got := ownerSide(o); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
		if got := valueSide(o); got != tc.wantValue {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.wantValue)
		}
		if !coldInStep(o) {
			t.Errorf("%s: the side table and the cold bits disagree", tc.name)
		}
	}
}

// TestOwnershipInvariantsHold drives two records through seeded random sequences of every ownership-side transition,
// legal or not at that point, and checks after every step the invariants the
// package doc states: o_ts never decreases in a record's life; a level rises
// only through a grant or a reclaim, an applied raise never leaves t_version
// below the source's version, and an unbacked refusal changes nothing; a NonReplica record never reads as ⟨Valid, payload⟩; an
// arbitration is pending iff o_state is Drive or Invalid, and whenever the
// replica is leaving; the side table
// (which holds the arbitration) has an entry iff it holds something, and the
// cold bits say what; and the copies PendingLocked and InvalidateLocked
// handed out still read what they read then — the entries are overwritten in
// place, so a copy that aliased one would not. The
// commit engine's transitions take part where its protocol runs them — a
// local commit at an owner, an R-INV and its R-VAL at a replica.
func TestOwnershipInvariantsHold(t *testing.T) {
	const self = wire.NodeID(1)
	type held struct{ got, want PendingOwn }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := New()
		var objs [2]*Object
		var floor [2]wire.OTS // highest o_ts seen in the record's life
		for i := range objs {
			objs[i], _ = st.GetOrCreate(wire.ObjectID(i))
		}
		var copies []held
		var trail []string
		randSet := func() wire.ReplicaSet {
			s := wire.ReplicaSet{Owner: wire.NodeID(rng.Intn(4)), Readers: wire.Bitmap(rng.Intn(16))}
			if s.Owner == 3 {
				s.Owner = wire.NoNode
			}
			s.Readers = s.Readers.Remove(s.Owner)
			return s
		}
		for step := 0; step < 400; step++ {
			i := rng.Intn(2)
			o := objs[i]
			// Timestamps are drawn around the current one, older and newer alike.
			near := wire.OTS{Ver: o.otsVer + uint64(rng.Intn(4)), Node: wire.NodeID(rng.Intn(3))}
			if near.Ver > 0 {
				near.Ver--
			}
			ver := o.TVersion() + uint64(rng.Intn(3))
			val := Shipped{Has: rng.Intn(2) == 0, Version: ver, Data: []byte{byte(step)}}
			pend := PendingOwn{ReqID: uint64(seed)<<32 | uint64(step), TS: near, Requester: wire.NodeID(rng.Intn(3)),
				Driver: wire.NodeID(rng.Intn(3)), Mode: wire.ReqMode(rng.Intn(5)), NewReplicas: randSet(),
				PrevOwner: wire.NodeID(rng.Intn(3)), Arbiters: wire.Bitmap(rng.Intn(8)), Epoch: wire.Epoch(step)}
			was, raises := o.level, false
			var op string
			switch r := rng.Intn(26); {
			case r < 2:
				op = "request"
				o.RequestLocked()
			case r < 4:
				op = "settle"
				o.SettleRequestLocked()
			case r < 6:
				op = "drive"
				if o.ostate&hasPending != 0 {
					continue // DriveLocked's one precondition
				}
				o.DriveLocked(pend)
				got, _ := o.PendingLocked()
				copies = append(copies, held{got, pend})
			case r < 10:
				op = fmt.Sprintf("inv(%d.%d)", near.Ver, near.Node)
				driving, _ := o.PendingLocked()
				wasDriving := o.OStateLocked() == ODrive && driving.Driver == self
				if loser, lost := o.InvalidateLocked(pend, self); lost {
					if !wasDriving || loser != driving {
						t.Fatalf("seed %d step %d: InvalidateLocked lost %+v, was driving %+v", seed, step, loser, driving)
					}
					copies = append(copies, held{loser, driving})
				}
				got, _ := o.PendingLocked()
				copies = append(copies, held{got, pend})
			case r < 13:
				op, raises = "val", true
				o.GrantPendingLocked(self)
			case r < 16:
				op, raises = fmt.Sprintf("grant(%d.%d)", near.Ver, near.Node), true
				before := ownerSide(o) + " / " + valueSide(o)
				applied, unbacked := o.GrantLocked(self, near, randSet(), val)
				if applied && o.level > was && o.TVersion() < val.Version {
					t.Fatalf("seed %d step %d: a raise left v%d below the source's v%d", seed, step, o.TVersion(), val.Version)
				}
				if after := ownerSide(o) + " / " + valueSide(o); unbacked && (applied || after != before) {
					t.Fatalf("seed %d step %d: an unbacked refusal changed %s into %s", seed, step, before, after)
				}
			case r < 17:
				op = "prune"
				o.PruneLocked(wire.Bitmap(rng.Intn(16)).Add(self))
				if got, ok := o.PendingLocked(); ok {
					copies = append(copies, held{got, got})
				}
			case r < 18:
				op = "replay"
				if got, ok := o.ReplayLocked(wire.Epoch(step), wire.Bitmap(rng.Intn(16)).Add(self)); ok {
					copies = append(copies, held{got, got})
				}
			case r < 19:
				op = "recover"
				o.RecoverLocked(self, ver, val.Data, near, randSet())
				floor[i] = wire.OTS{} // a new life
			case r < 20:
				op, raises = "reclaim", true
				o.ReclaimLocked(self, rng.Intn(2) == 0)
			case r < 21:
				op = fmt.Sprintf("adopt(%d.%d)", near.Ver, near.Node)
				o.AdoptEntryLocked(near, randSet())
			case r < 22:
				op = "local-commit"
				if !o.HoldsLocked(wire.Owner) {
					continue
				}
				o.StageLocked(val.Data)
			case r < 24:
				op = "r-inv+r-val"
				if o.level == wire.NonReplica {
					continue
				}
				o.StageInvLocked(ver, val.Data)
				o.ValidateLocked(ver, TInvalid)
			case r < 25:
				op = "yield" // the owner NACKed a mover; half of them have run out already
				o.YieldLocalLocked(time.Duration(rng.Intn(2)*2-1) * time.Hour)
			default:
				op = "local-grant"
				if o.GrantLocalLocked(0) {
					o.ReleaseLocal(0)
				}
			}
			trail = append(trail, fmt.Sprintf("%d:%s", i, op))
			bad := ""
			if o.OTSLocked().Less(floor[i]) {
				bad = fmt.Sprintf("o_ts went back from %v", floor[i])
			}
			floor[i] = o.OTSLocked()
			if o.level > was && !raises {
				bad = fmt.Sprintf("level rose from %v", was)
			}
			if ver, ts := o.TSnapshot(); o.level == wire.NonReplica && ts == TValid && (ver != 0 || o.DataLocked() != nil) {
				bad = "a non-replica reads as Valid with a payload"
			}
			if _, ok := o.PendingLocked(); ok != (o.OStateLocked() == ODrive || o.OStateLocked() == OInvalid) {
				bad = "pending record and o_state disagree"
			}
			if _, ts := o.TSnapshot(); ts&TLeaving != 0 && o.ostate&hasPending == 0 {
				bad = "a replica is leaving with no arbitration pending"
			}
			if !coldInStep(o) {
				bad = "the side table and the cold bits disagree"
			}
			for _, c := range copies {
				if c.got != c.want {
					bad = fmt.Sprintf("a copy handed out earlier now reads %+v, was %+v", c.got, c.want)
				}
			}
			if bad != "" {
				last := trail[max(0, len(trail)-8):]
				t.Fatalf("seed %d step %d: %s — %s / %s; last ops %v", seed, step, bad, ownerSide(o), valueSide(o), last)
			}
		}
	}
}
