package store

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"zeus/internal/wire"
)

func TestGetOrCreateDefaults(t *testing.T) {
	s := New()
	o, created := s.GetOrCreate(7)
	if !created {
		t.Fatal("first insert must report created")
	}
	if o.level != wire.NonReplica || o.owner != wire.NoNode ||
		o.localOwner != NoLocalOwner || o.TState() != TValid || o.ostate != OValid {
		t.Fatalf("bad defaults: %+v", o)
	}
	o2, created2 := s.GetOrCreate(7)
	if created2 || o2 != o {
		t.Fatal("second GetOrCreate must return the same object")
	}
	if _, ok := s.Get(7); !ok {
		t.Fatal("Get after create failed")
	}
	if _, ok := s.Get(8); ok {
		t.Fatal("Get of absent object succeeded")
	}
}

func TestDeleteAndLen(t *testing.T) {
	s := New()
	for i := wire.ObjectID(0); i < 100; i++ {
		s.GetOrCreate(i)
	}
	if s.Len() != 100 {
		t.Fatalf("len = %d", s.Len())
	}
	s.Delete(50)
	if s.Len() != 99 {
		t.Fatalf("len after delete = %d", s.Len())
	}
	if _, ok := s.Get(50); ok {
		t.Fatal("deleted object still present")
	}
}

// TestDeleteInvalidatesHeldPointer: a transaction validates against the
// object it resolved at first touch, so a deleted object must stop looking
// like a valid replica through that pointer.
func TestDeleteInvalidatesHeldPointer(t *testing.T) {
	s := New()
	o, _ := s.GetOrCreate(7)
	o.Mu.Lock()
	o.level = wire.Owner
	o.setTLocked(3, TValid)
	o.Mu.Unlock()
	s.Delete(7)
	s.Delete(7) // a second delete of a missing id is a no-op
	if v, st := o.TSnapshot(); v != 3 || st != TInvalid {
		t.Fatalf("orphan reads as v%d %v, want v3 Invalid", v, st)
	}
	if st, _, lvl, _ := o.SnapshotRef(); st != TInvalid || lvl != wire.NonReplica {
		t.Fatalf("orphan is %v at level %v, want Invalid non-replica", st, lvl)
	}
}

func TestForEachVisitsAllAndStops(t *testing.T) {
	s := New()
	for i := wire.ObjectID(0); i < 64; i++ {
		s.GetOrCreate(i)
	}
	seen := map[wire.ObjectID]bool{}
	s.ForEach(func(o *Object) bool {
		seen[o.ID] = true
		return true
	})
	if len(seen) != 64 {
		t.Fatalf("visited %d objects", len(seen))
	}
	n := 0
	s.ForEach(func(*Object) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

func tryAcquireLocal(o *Object, worker int32) bool {
	o.Mu.Lock()
	defer o.Mu.Unlock()
	return o.GrantLocalLocked(worker)
}

func TestLocalOwnership(t *testing.T) {
	s := New()
	o, _ := s.GetOrCreate(1)
	if !tryAcquireLocal(o, 3) {
		t.Fatal("free object must be acquirable")
	}
	if !tryAcquireLocal(o, 3) {
		t.Fatal("same worker re-acquire must succeed")
	}
	if tryAcquireLocal(o, 4) {
		t.Fatal("held object acquired by another worker")
	}
	o.ReleaseLocal(4) // not the holder: no-op
	if tryAcquireLocal(o, 4) {
		t.Fatal("release by non-holder freed the object")
	}
	o.ReleaseLocal(3)
	if !tryAcquireLocal(o, 4) {
		t.Fatal("released object must be acquirable")
	}
}

func TestLocalOwnershipMutualExclusion(t *testing.T) {
	s := New()
	o, _ := s.GetOrCreate(1)
	const workers = 8
	var wg sync.WaitGroup
	counter := 0
	for w := int32(0); w < workers; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if tryAcquireLocal(o, w) {
					counter++ // protected by local ownership
					o.ReleaseLocal(w)
				}
			}
		}(w)
	}
	wg.Wait()
	if counter == 0 {
		t.Fatal("no acquisitions at all")
	}
}

// TestSnapshotRefStableAcrossReplace pins the replace-only contract behind
// the copy-on-read elision: a no-copy snapshot keeps observing exactly the
// bytes read, because writers install fresh slices instead of mutating the
// published array.
func TestSnapshotRefStableAcrossReplace(t *testing.T) {
	s := New()
	o, _ := s.GetOrCreate(1)
	o.Mu.Lock()
	o.installLocked(0, 1, []byte("v1"))
	o.Mu.Unlock()

	st, ver, lvl, ref := o.SnapshotRef()
	if st != TValid || ver != 1 || lvl != wire.NonReplica || string(ref) != "v1" {
		t.Fatalf("snapshot ref: %v %d %v %q", st, ver, lvl, ref)
	}
	if &ref[0] != unsafe.StringData(o.data) {
		t.Fatal("SnapshotRef must alias, not copy")
	}

	// A commit REPLACES the payload; the snapshot stays the old bytes.
	o.Mu.Lock()
	o.StageLocked([]byte("v2"))
	o.Mu.Unlock()
	if string(ref) != "v1" {
		t.Fatalf("snapshot mutated by replace: %q", ref)
	}
	if _, _, _, ref2 := o.SnapshotRef(); string(ref2) != "v2" {
		t.Fatalf("fresh snapshot: %q", ref2)
	}
}

// TestTSnapshotMirrorsSetTLocked pins the packed atomic word the lock-free
// read-only validation reads.
func TestTSnapshotMirrorsSetTLocked(t *testing.T) {
	s := New()
	o, _ := s.GetOrCreate(1)
	if v, st := o.TSnapshot(); v != 0 || st != TValid {
		t.Fatalf("zero value: %d %v", v, st)
	}
	o.Mu.Lock()
	o.setTLocked(7, TInvalid)
	o.Mu.Unlock()
	if v, st := o.TSnapshot(); v != 7 || st != TInvalid {
		t.Fatalf("after setTLocked: %d %v", v, st)
	}
	if o.TVersion() != 7 || o.TState() != TInvalid {
		t.Fatal("the accessors must read what setTLocked stored")
	}
	o.Mu.Lock()
	o.setTLocked(8, TWrite)
	o.Mu.Unlock()
	if v, st := o.TSnapshot(); v != 8 || st != TWrite {
		t.Fatalf("after second setTLocked: %d %v", v, st)
	}
}

func TestShardingDistribution(t *testing.T) {
	// Dense sequential IDs (the benchmarks' pattern) should scatter across
	// shards reasonably evenly thanks to Fibonacci hashing.
	s := New()
	for i := wire.ObjectID(0); i < 6400; i++ {
		s.GetOrCreate(i)
	}
	max := 0
	for i := range s.shards {
		if n := s.shards[i].n; n > max {
			max = n
		}
	}
	if max > 400 { // perfectly even would be 100 per shard
		t.Fatalf("worst shard holds %d/6400 objects", max)
	}
}

func TestConcurrentStoreAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := wire.ObjectID(i % 97)
				o, _ := s.GetOrCreate(id)
				o.Mu.Lock()
				o.setTLocked(o.TVersion()+1, TValid)
				o.Mu.Unlock()
				s.Get(id)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 97 {
		t.Fatalf("len = %d, want 97", s.Len())
	}
	var total uint64
	s.ForEach(func(o *Object) bool {
		total += o.TVersion()
		return true
	})
	if total != 4000 {
		t.Fatalf("version increments lost: %d, want 4000", total)
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []TState{TValid, TInvalid, TWrite, TState(9)} {
		if s.String() == "" {
			t.Fatal("empty TState string")
		}
	}
	for _, s := range []OState{OValid, OInvalid, ORequest, ODrive, OState(9)} {
		if s.String() == "" {
			t.Fatal("empty OState string")
		}
	}
}

func TestGetOrCreatePropertyIdempotent(t *testing.T) {
	s := New()
	f := func(id uint64) bool {
		a, _ := s.GetOrCreate(wire.ObjectID(id))
		b, created := s.GetOrCreate(wire.ObjectID(id))
		return a == b && !created
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestObjectSize pins the record at its allocation size class: past 80 bytes
// Go rounds it up to the 96-byte class, 16 bytes more per replica, three
// times per object. It reached 80 by two moves from 96: the pending
// arbitration's pointer went into the cold record, and the payload is a
// string view, which drops the capacity word of a slice. Under snapshot reads
// the cold record adds its 48-byte class: 128 in all.
func TestObjectSize(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got > 80 {
		t.Fatalf("store.Object is %d bytes, must stay within the 80-byte size class", got)
	}
	if got := unsafe.Sizeof(Object{}) + unsafe.Sizeof(coldState{}); got > 128 {
		t.Fatalf("store.Object and its cold record are %d bytes, must stay within 128", got)
	}
}

// TestPayloadIsTheAdoptedArray: the payload is held without its capacity but
// is still the caller's array, not a copy — DataLocked, SnapshotRef and the
// ring read's implicit entry return the very bytes a transition adopted, with
// cap == len — and an empty payload reads as nil, never as a non-nil empty
// slice, from a ring entry as from the record: the WAL and snapshot codecs
// write a nil payload as "no data".
func TestPayloadIsTheAdoptedArray(t *testing.T) {
	same := func(what string, got, want []byte) {
		t.Helper()
		if len(got) != len(want) || cap(got) != len(got) || &got[0] != &want[0] {
			t.Errorf("%s: %d/%d bytes at %p, want the adopted %d at %p", what, len(got), cap(got), got, len(want), want)
		}
	}
	v := make([]byte, 8, 16)[2:5:5] // clipped, as Set and Seed hand it over
	o, _ := New().GetOrCreate(1)
	// reads returns what the three read paths serve once do has run.
	reads := func(do func()) (data, ref, ring []byte, served bool) {
		o.Mu.Lock()
		do()
		data = o.DataLocked()
		e, ok := o.RingReadLocked(math.MaxUint64)
		o.Mu.Unlock()
		_, _, _, ref = o.SnapshotRef()
		return data, ref, e.Data, ok
	}

	data, ref, ring, served := reads(func() { o.installLocked(0, 1, v) })
	same("DataLocked", data, v)
	same("SnapshotRef", ref, v)
	if !served {
		t.Fatal("the implicit ring entry was not served")
	}
	same("RingReadLocked", ring, v)
	for _, step := range []struct {
		name string
		do   func()
	}{
		{"an empty payload committed", func() { o.ValidateLocked(o.StageLocked([]byte{}), TWrite) }},
		{"an empty payload published to the ring", func() { o.StageInvLocked(7, o.TVersion()+1, []byte{}) }},
		{"a drop", o.dropLocked},
		{"a recovery without data", func() {
			o.RecoverLocked(0, 0, 2, nil, wire.OTS{}, wire.ReplicaSet{})
			o.ValidateLocked(o.TSnapshot())
		}},
	} {
		data, ref, ring, served := reads(step.do)
		if data != nil || ref != nil || ring != nil || !served {
			t.Errorf("after %s: DataLocked %#v, SnapshotRef %#v, ring read %#v (served %v); want nil, nil, nil (true)",
				step.name, data, ref, ring, served)
		}
	}
}

// TestStoreBytesPerObject: an object costs its record plus its index slots —
// 8 bytes each, the table between 3/8 and 3/4 full — and nothing else.
func TestStoreBytesPerObject(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what an allocation costs")
	}
	const objects = 30000
	s := New()
	before := liveHeap()
	for i := wire.ObjectID(0); i < objects; i++ {
		s.GetOrCreate(i)
	}
	per := float64(liveHeap()-before) / objects
	t.Logf("%.1f bytes per object (%d shards)", per, len(s.shards))
	if per > 108 {
		t.Errorf("the store costs %.1f bytes per object, must stay within 108", per)
	}
	runtime.KeepAlive(s)
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// checkIndex verifies every shard's table: each entry is reachable from its
// home slot without crossing an empty one, no id is stored twice, and the
// count matches.
func checkIndex(t *testing.T, s *Store) {
	t.Helper()
	for si := range s.shards {
		sh := &s.shards[si]
		mask := len(sh.slots) - 1
		n, seen := 0, map[wire.ObjectID]bool{}
		for i, o := range sh.slots {
			if o == nil {
				continue
			}
			n++
			if seen[o.ID] {
				t.Fatalf("shard %d: id %d stored twice", si, o.ID)
			}
			seen[o.ID] = true
			h := hash(o.ID)
			if &s.shards[h>>s.shift] != sh {
				t.Fatalf("shard %d holds id %d of another shard", si, o.ID)
			}
			for j := int(h>>sh.shift) & mask; j != i; j = (j + 1) & mask {
				if sh.slots[j] == nil {
					t.Fatalf("shard %d: id %d at slot %d is cut off from its home by an empty slot %d", si, o.ID, i, j)
				}
			}
		}
		if n != sh.n {
			t.Fatalf("shard %d counts %d objects and holds %d", si, sh.n, n)
		}
	}
}

// TestStoreIndexMatchesMap runs the index against a Go map: a probe run that
// wraps around the end of the table and loses an entry from its middle, then
// random GetOrCreate/Get/Delete over ids crowded into two shards, so tables
// grow several times and deletes land inside long probe runs — the case
// backward-shift deletion must get right.
func TestStoreIndexMatchesMap(t *testing.T) {
	s := New()
	sh := &s.shards[0]
	// Ids of shard 0 whose home is the fresh table's last slot: their run
	// wraps to slots 0, 1, 2, ...
	var wrap []wire.ObjectID
	for id := wire.ObjectID(0); len(wrap) < 5; id++ {
		if h := hash(id); h>>s.shift == 0 && int(h>>sh.shift)&7 == 7 {
			wrap = append(wrap, id)
		}
	}
	for _, id := range wrap {
		s.GetOrCreate(id)
	}
	if len(sh.slots) != 8 || sh.slots[7].ID != wrap[0] || sh.slots[0].ID != wrap[1] {
		t.Fatalf("the run did not wrap around the fresh 8-slot table: %d slots", len(sh.slots))
	}
	s.Delete(wrap[1])
	checkIndex(t, s)
	for i, id := range wrap {
		if _, ok := s.Get(id); ok != (i != 1) {
			t.Fatalf("after deleting %d from the middle of the run, Get(%d) = %v", wrap[1], id, ok)
		}
	}

	s = New()
	var pool []wire.ObjectID
	for id := wire.ObjectID(0); len(pool) < 3000; id++ {
		if hash(id)>>s.shift < 2 {
			pool = append(pool, id)
		}
	}
	rng := rand.New(rand.NewSource(1))
	ref := map[wire.ObjectID]*Object{}
	for step := 0; step < 40000; step++ {
		id := pool[rng.Intn(len(pool))]
		switch r := rng.Intn(10); {
		case r < 5:
			o, created := s.GetOrCreate(id)
			if want, ok := ref[id]; created == ok || ok && o != want || o.ID != id {
				t.Fatalf("step %d: GetOrCreate(%d) = %p, created %v; the map holds %p", step, id, o, created, want)
			}
			ref[id] = o
		case r < 8:
			s.Delete(id)
			delete(ref, id)
		default:
			if o, ok := s.Get(id); o != ref[id] || ok != (o != nil) {
				t.Fatalf("step %d: Get(%d) = %p, %v; the map holds %p", step, id, o, ok, ref[id])
			}
		}
		if step%500 == 0 {
			checkIndex(t, s)
		}
	}
	checkIndex(t, s)
	if s.Len() != len(ref) {
		t.Fatalf("Len %d, the map holds %d", s.Len(), len(ref))
	}
	for id, want := range ref {
		if o, _ := s.Get(id); o != want {
			t.Fatalf("Get(%d) = %p, the map holds %p", id, o, want)
		}
	}
	n := 0
	s.ForEach(func(o *Object) bool { n++; return ref[o.ID] == o })
	if n != len(ref) {
		t.Fatalf("ForEach visited %d of %d objects", n, len(ref))
	}
}

// TestYieldLocalDefersNewGrants: the transfer-fairness yield refuses a new
// local grant until its deadline, and never takes the object from a worker
// that already holds it.
func TestYieldLocalDefersNewGrants(t *testing.T) {
	s := New()
	o, _ := s.GetOrCreate(1)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	o.YieldLocalLocked(time.Hour)
	if o.GrantLocalLocked(3) {
		t.Fatal("new local grant during the yield")
	}
	o.YieldLocalLocked(-time.Nanosecond)
	if !o.GrantLocalLocked(3) {
		t.Fatal("local grant refused after the yield ran out")
	}
	o.YieldLocalLocked(time.Hour)
	if !o.GrantLocalLocked(3) {
		t.Fatal("the yield took the object from the worker holding it")
	}
}

// TestPublishRingStaysInPlace: the ring holds the DefaultRingEntries newest
// distinct versions, sorted, whatever order they were published in — and a
// full ring makes room before the insert, so its array never grows past
// DefaultRingEntries (appending first used to double it on the ninth
// publish, for good).
func TestPublishRingStaysInPlace(t *testing.T) {
	inOrder := make([]uint64, 100)
	for i := range inOrder {
		inOrder[i] = uint64(i + 1)
	}
	shuffled := slices.Clone(inOrder)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	withDuplicates := append(slices.Clone(shuffled), shuffled[:50]...)
	for name, versions := range map[string][]uint64{
		"in order": inOrder, "shuffled": shuffled, "duplicates": withDuplicates,
	} {
		o := &Object{}
		o.setTLocked(100, TValid) // the ring never runs ahead of the word
		var want []uint64         // the reference: sorted insert, dedupe, then drop the oldest
		for _, v := range versions {
			o.publishRingLocked(1000+v, v, []byte{byte(v)})
			if i, dup := slices.BinarySearch(want, v); !dup {
				want = slices.Insert(want, i, v)
				if len(want) > DefaultRingEntries {
					want = want[1:]
				}
			}
			ring := o.ringForTest()
			if cap(ring) > DefaultRingEntries {
				t.Fatalf("%s: ring array grew to %d slots after publishing v%d", name, cap(ring), v)
			}
			got := make([]uint64, len(ring))
			for i, e := range ring {
				got[i] = e.Version
				if e.CTS != 1000+e.Version || e.Data[0] != byte(e.Version) {
					t.Fatalf("%s: entry %d = %+v does not belong to its version", name, i, e)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: after publishing v%d the ring holds %v, want %v", name, v, got, want)
			}
		}
		if cts := o.CommitCTSLocked(); cts != 1100 {
			t.Fatalf("%s: commitCTS %d, want the newest published (1100)", name, cts)
		}
	}
}
