package checker

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestEmptyAndSingleHistories(t *testing.T) {
	if err := Check(nil); err != nil {
		t.Fatal(err)
	}
	h := []Tx{{ID: 1, Start: 0, End: 1,
		Reads:  []Access{{Obj: 1, Ver: 0}},
		Writes: []Access{{Obj: 1, Ver: 1}}}}
	if err := Check(h); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialCounterOK(t *testing.T) {
	var h []Tx
	for i := 0; i < 10; i++ {
		h = append(h, Tx{
			ID: i, Start: int64(i * 10), End: int64(i*10 + 5),
			Reads:  []Access{{Obj: 1, Ver: uint64(i)}},
			Writes: []Access{{Obj: 1, Ver: uint64(i + 1)}},
		})
	}
	if err := Check(h); err != nil {
		t.Fatal(err)
	}
}

func TestLostUpdateDetected(t *testing.T) {
	// Two transactions read version 1 and both "increment": one installs
	// v2, the other v3 — but the v3 writer read v1, not v2: lost update.
	h := []Tx{
		{ID: 1, Start: 0, End: 10,
			Reads: []Access{{1, 1}}, Writes: []Access{{1, 2}}},
		{ID: 2, Start: 0, End: 10,
			Reads: []Access{{1, 1}}, Writes: []Access{{1, 3}}},
	}
	err := CheckSerializable(h)
	if err == nil {
		t.Fatal("lost update not detected")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestWriteSkewDetected(t *testing.T) {
	// Classic write skew: T1 reads x@1,y@1 writes x@2; T2 reads x@1,y@1
	// writes y@2. Each read the other's overwritten version → r-w edges in
	// both directions → cycle.
	h := []Tx{
		{ID: 1, Start: 0, End: 10,
			Reads:  []Access{{1, 1}, {2, 1}},
			Writes: []Access{{1, 2}}},
		{ID: 2, Start: 0, End: 10,
			Reads:  []Access{{1, 1}, {2, 1}},
			Writes: []Access{{2, 2}}},
	}
	if err := CheckSerializable(h); err == nil {
		t.Fatal("write skew not detected")
	}
}

func TestRealTimeViolationDetected(t *testing.T) {
	// T1 writes v2 and completes; T2 starts afterwards but reads v1:
	// serializable (T2 before T1) yet not *strictly* serializable.
	h := []Tx{
		{ID: 1, Start: 0, End: 10,
			Reads: []Access{{1, 1}}, Writes: []Access{{1, 2}}},
		{ID: 2, Start: 20, End: 30,
			Reads: []Access{{1, 1}}},
	}
	if err := CheckSerializable(h); err != nil {
		t.Fatalf("plain serializability should pass: %v", err)
	}
	if err := Check(h); err == nil {
		t.Fatal("stale read after real-time completion not detected")
	}
}

func TestDuplicateVersionDetected(t *testing.T) {
	h := []Tx{
		{ID: 1, Start: 0, End: 1, Writes: []Access{{1, 2}}},
		{ID: 2, Start: 2, End: 3, Writes: []Access{{1, 2}}},
	}
	err := Check(h)
	if err == nil || !strings.Contains(err.Error(), "duplicate-version") {
		t.Fatalf("duplicate version not detected: %v", err)
	}
}

func TestConcurrentInterleavingOK(t *testing.T) {
	// Overlapping transactions on different objects with a shared reader:
	// a legal concurrent history.
	h := []Tx{
		{ID: 1, Start: 0, End: 100, Reads: []Access{{1, 0}}, Writes: []Access{{1, 1}}},
		{ID: 2, Start: 0, End: 100, Reads: []Access{{2, 0}}, Writes: []Access{{2, 1}}},
		{ID: 3, Start: 50, End: 150, Reads: []Access{{1, 1}, {2, 0}}},
		{ID: 4, Start: 120, End: 200, Reads: []Access{{1, 1}, {2, 1}}},
	}
	if err := Check(h); err != nil {
		t.Fatal(err)
	}
}

func TestMultiObjectAtomicityViolation(t *testing.T) {
	// T1 writes x@2 and y@2 atomically. T2 observes x@2 with y@1 — it saw
	// half of T1. T3 then observes y@2 having responded... make the cycle:
	// T2 reads x@2 (after T1) and y@1 (before T1): T1→T2 and T2→T1.
	h := []Tx{
		{ID: 1, Start: 0, End: 10,
			Reads:  []Access{{1, 1}, {2, 1}},
			Writes: []Access{{1, 2}, {2, 2}}},
		{ID: 2, Start: 5, End: 15,
			Reads: []Access{{1, 2}, {2, 1}}},
	}
	if err := CheckSerializable(h); err == nil {
		t.Fatal("torn multi-object read not detected")
	}
}

func TestBlindWriteChainsOK(t *testing.T) {
	h := []Tx{
		{ID: 1, Start: 0, End: 1, Writes: []Access{{1, 1}}},
		{ID: 2, Start: 2, End: 3, Writes: []Access{{1, 2}}},
		{ID: 3, Start: 4, End: 5, Reads: []Access{{1, 2}}},
	}
	if err := Check(h); err != nil {
		t.Fatal(err)
	}
}

// strictlyRejected fails the test unless Check rejects h with a cycle through
// exactly the transactions in want (in any order) while CheckSerializable
// accepts it: the violation is one of real time alone.
func strictlyRejected(t *testing.T, h []Tx, want ...int) {
	t.Helper()
	if err := CheckSerializable(h); err != nil {
		t.Fatalf("plain serializability should pass: %v", err)
	}
	err := Check(h)
	if err == nil {
		t.Fatal("real-time violation not detected")
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("unexpected error: %v", err)
	}
	got := slices.Clone(v.Cycle)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("cycle %v, want the transactions %v", v.Cycle, want)
	}
}

// TestRealTimeReachesPastAnOverlappingStarter: T1 starts first after T0
// ends, but T2 starts later still, inside T1 — T0 precedes T2 all the same.
func TestRealTimeReachesPastAnOverlappingStarter(t *testing.T) {
	strictlyRejected(t, []Tx{
		{ID: 0, Start: 0, End: 10, Writes: []Access{{1, 1}}},
		{ID: 1, Start: 11, End: 100, Writes: []Access{{2, 1}}},
		{ID: 2, Start: 12, End: 13, Reads: []Access{{1, 0}}},
	}, 0, 2)
}

// TestRealTimeAcrossAnOverlapChain: the starters after T0 overlap one another
// in a chain, and the stale reader starts inside all of them.
func TestRealTimeAcrossAnOverlapChain(t *testing.T) {
	strictlyRejected(t, []Tx{
		{ID: 0, Start: 0, End: 10, Writes: []Access{{1, 1}}},
		{ID: 1, Start: 11, End: 100, Writes: []Access{{2, 1}}},
		{ID: 2, Start: 20, End: 110, Writes: []Access{{3, 1}}},
		{ID: 3, Start: 30, End: 120, Writes: []Access{{4, 1}}},
		{ID: 4, Start: 40, End: 41, Reads: []Access{{1, 0}}},
	}, 0, 4)
}

// TestRealTimeEqualStamps: two transactions that start at the same instant
// after T0 ends both follow it, whichever sorts first; one that starts at the
// instant T0 ends overlaps it and is not ordered after it.
func TestRealTimeEqualStamps(t *testing.T) {
	strictlyRejected(t, []Tx{
		{ID: 0, Start: 0, End: 10, Writes: []Access{{1, 1}}},
		{ID: 1, Start: 11, End: 12, Writes: []Access{{2, 1}}},
		{ID: 2, Start: 11, End: 12, Reads: []Access{{1, 0}}},
	}, 0, 2)
	if err := Check([]Tx{
		{ID: 0, Start: 0, End: 10, Writes: []Access{{1, 1}}},
		{ID: 1, Start: 10, End: 12, Reads: []Access{{1, 0}}},
	}); err != nil {
		t.Fatalf("a transaction starting as another ends overlaps it: %v", err)
	}
}

// TestRealTimeReaderAfterTwoOverlappingWriters: T0 and T1 write v1 and v2 of
// one object, overlapping; an unrelated T3 starts after both and runs long;
// T2 starts after T1 ended and reads v1, so it must precede T1 — which ended
// before T2 began.
func TestRealTimeReaderAfterTwoOverlappingWriters(t *testing.T) {
	strictlyRejected(t, []Tx{
		{ID: 0, Start: 0, End: 10, Writes: []Access{{1, 1}}},
		{ID: 1, Start: 2, End: 12, Writes: []Access{{1, 2}}},
		{ID: 3, Start: 13, End: 100, Writes: []Access{{2, 1}}},
		{ID: 2, Start: 14, End: 15, Reads: []Access{{1, 1}}},
	}, 1, 2)
}

// oracleStrict is strict serializability by definition: every version edge
// and a real-time edge for every ordered pair, then a cycle search by
// transitive closure. Quadratic and cubic, for small histories only.
func oracleStrict(h []Tx) bool {
	n := len(h)
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for i, a := range h {
		for j, b := range h {
			if i == j {
				continue
			}
			edge := a.End < b.Start
			for _, w := range a.Writes {
				for _, x := range b.Writes {
					edge = edge || (x.Obj == w.Obj && x.Ver == w.Ver+1)
				}
				for _, r := range b.Reads {
					edge = edge || (r.Obj == w.Obj && r.Ver == w.Ver)
				}
			}
			for _, r := range a.Reads {
				for _, x := range b.Writes {
					edge = edge || (x.Obj == r.Obj && x.Ver == r.Ver+1)
				}
			}
			reach[i][j] = edge
		}
	}
	for k := range n {
		for i := range n {
			for j := range n {
				reach[i][j] = reach[i][j] || (reach[i][k] && reach[k][j])
			}
		}
	}
	for i := range n {
		if reach[i][i] {
			return false
		}
	}
	return true
}

// TestCheckMatchesTheQuadraticOracle: on random small histories (two
// objects, versions 0–3, stamps in [0, 20]) Check accepts exactly what the
// definition accepts, and every cycle it reports is one.
func TestCheckMatchesTheQuadraticOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for round := range 10000 {
		var h []Tx
		written := map[Access]bool{}
		for id := range 1 + rng.Intn(8) {
			start := int64(rng.Intn(20))
			tx := Tx{ID: id, Start: start, End: start + int64(rng.Intn(8))}
			for obj := uint64(1); obj <= 2; obj++ {
				ver := uint64(rng.Intn(4))
				switch rng.Intn(4) {
				case 1:
					tx.Reads = append(tx.Reads, Access{obj, ver})
				case 2, 3:
					if w := (Access{obj, ver + 1}); !written[w] {
						written[w] = true
						tx.Writes = append(tx.Writes, w)
						if rng.Intn(2) == 0 {
							tx.Reads = append(tx.Reads, Access{obj, ver})
						}
					}
				}
			}
			h = append(h, tx)
		}
		want := oracleStrict(h)
		err := Check(h)
		if (err == nil) != want {
			t.Fatalf("round %d: Check says %v, the definition says strictly serializable = %v, for %+v", round, err, want, h)
		}
		if want {
			accepted++
		}
	}
	if accepted < 1000 || accepted > 9000 {
		t.Fatalf("%d of 10000 histories accepted: the generator does not exercise both answers", accepted)
	}
}

// TestCheckAMillionTransactions: a million transactions — a counter per
// object, each overlapping the next few — check in well under the five
// seconds a torture run can spend on its history.
func TestCheckAMillionTransactions(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bound; the race detector slows the check several times over")
	}
	const n, objects = 1_000_000, 1000
	rng := rand.New(rand.NewSource(1))
	ver := make([]uint64, objects)
	h := make([]Tx, n)
	for i := range h {
		obj := uint64(rng.Intn(objects))
		h[i] = Tx{ID: i, Start: int64(4 * i), End: int64(4*i + rng.Intn(16)),
			Reads:  []Access{{obj, ver[obj]}},
			Writes: []Access{{obj, ver[obj] + 1}}}
		ver[obj]++
	}
	start := time.Now()
	if err := Check(h); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("checked %d transactions in %v, want ≤ 5s", n, took)
	}
}
