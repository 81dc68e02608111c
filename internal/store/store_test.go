package store

import (
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
	if tryAcquireLocal(o, 3) {
		t.Fatal("the holder was granted the object twice")
	}
	if o.LocalOwnerLocked() != 3 {
		t.Fatal("a refused second ask took the object from its holder")
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
	o.installLocked(1, []byte("v1"))
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
// string view, which drops the capacity word of a slice. A yield or an
// arbitration adds the cold record's 16-byte class: 96 in all.
func TestObjectSize(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got > 80 {
		t.Fatalf("store.Object is %d bytes, must stay within the 80-byte size class", got)
	}
	if got := unsafe.Sizeof(Object{}) + unsafe.Sizeof(coldState{}); got > 96 {
		t.Fatalf("store.Object and its cold record are %d bytes, must stay within 96", got)
	}
}

// TestPayloadIsTheAdoptedArray: the payload is held without its capacity but
// is still the caller's array, not a copy — DataLocked and SnapshotRef return
// the very bytes a transition adopted, with cap == len — and an empty payload
// reads as nil, never as a non-nil empty slice: the WAL and snapshot codecs
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
	// reads returns what the two read paths serve once do has run.
	reads := func(do func()) (data, ref []byte) {
		o.Mu.Lock()
		do()
		data = o.DataLocked()
		o.Mu.Unlock()
		_, _, _, ref = o.SnapshotRef()
		return data, ref
	}

	data, ref := reads(func() { o.installLocked(1, v) })
	same("DataLocked", data, v)
	same("SnapshotRef", ref, v)
	for _, step := range []struct {
		name string
		do   func()
	}{
		{"an empty payload committed", func() { o.ValidateLocked(o.StageLocked([]byte{}), TWrite) }},
		{"an empty payload applied from an R-INV", func() { o.StageInvLocked(o.TVersion()+1, []byte{}) }},
		{"a drop", o.dropLocked},
		{"a recovery without data", func() {
			o.RecoverLocked(0, 2, nil, wire.OTS{}, wire.ReplicaSet{})
			o.ValidateLocked(o.TSnapshot())
		}},
	} {
		if data, ref := reads(step.do); data != nil || ref != nil {
			t.Errorf("after %s: DataLocked %#v, SnapshotRef %#v; want nil, nil", step.name, data, ref)
		}
	}
}

// TestStoreBytesPerObject: an object costs its record plus its index slots —
// 8 bytes each, in tables about 1/2 to 3/4 full that use every slot their
// allocation pays for — and nothing else. The shard count is pinned to a
// small host's 64, so every host measures the same tables; 30 000 objects is
// the benchmark's population of one store.
func TestStoreBytesPerObject(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what an allocation costs")
	}
	defer func(n int) { shardCount = n }(shardCount)
	shardCount = 64
	for _, c := range []struct {
		objects             int
		perObject, perEntry float64 // ceilings, 0 for none
	}{
		{objects: 3000, perEntry: 22},
		{objects: 10000, perEntry: 22},
		{objects: 30000, perObject: 96, perEntry: 12},
		{objects: 100000, perEntry: 22},
	} {
		before := liveHeap()
		s := New()
		for i := 0; i < c.objects; i++ {
			s.GetOrCreate(wire.ObjectID(i))
		}
		per := float64(liveHeap()-before) / float64(c.objects)
		index := per - float64(unsafe.Sizeof(Object{}))
		runtime.KeepAlive(s)
		t.Logf("%d objects: %.1f bytes an object, %.1f of them index", c.objects, per, index)
		if c.perObject > 0 && per > c.perObject {
			t.Errorf("%d objects: the store costs %.1f bytes an object, must stay within %.0f", c.objects, per, c.perObject)
		}
		if index > c.perEntry {
			t.Errorf("%d objects: the index costs %.1f bytes an entry, must stay within %.0f", c.objects, index, c.perEntry)
		}
	}
}

// TestShardTablesFillTheirSizeClass: each table a shard grows to is at least
// half as long again as the last, and holds every slot of its allocation's size
// class — asking slices.Grow for that many slots yields exactly that many — so
// no byte of it goes unused, a table's malloc header over 512 bytes included.
func TestShardTablesFillTheirSizeClass(t *testing.T) {
	s := New()
	sh := &s.shards[0]
	lens := []int{len(sh.slots)}
	for id := wire.ObjectID(0); sh.n < 5000; id++ {
		if hash(id)>>s.shift != 0 {
			continue
		}
		old := len(sh.slots)
		s.GetOrCreate(id)
		if n := len(sh.slots); n != old {
			lens = append(lens, n)
			if n < old+old/2 || cap(sh.slots) != n || cap(slices.Grow([]*Object(nil), n)) != n {
				t.Fatalf("%d slots grew to %d of capacity %d; want ≥ %d, all of its size class", old, n, cap(sh.slots), old+old/2)
			}
		}
	}
	t.Logf("table lengths: %v", lens)
	checkIndex(t, s)
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// checkIndex verifies every shard's table: each entry is reachable from its
// home slot without crossing an empty one, no id is stored twice, the count
// matches, and the table is at most 3/4 full.
func checkIndex(t *testing.T, s *Store) {
	t.Helper()
	for si := range s.shards {
		sh := &s.shards[si]
		if 4*sh.n > 3*len(sh.slots) {
			t.Fatalf("shard %d holds %d objects in %d slots, above 3/4", si, sh.n, len(sh.slots))
		}
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
			for j := sh.home(h); j != i; j = (j + 1) % len(sh.slots) {
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
// wraps around the end of a fresh table, and of grown ones whose lengths are
// not powers of two, and loses an entry from its middle; then random
// GetOrCreate/Get/Delete over ids crowded into two shards, so tables grow
// several times and deletes land inside long probe runs — the case
// backward-shift deletion must get right.
func TestStoreIndexMatchesMap(t *testing.T) {
	for _, size := range []int{8, 12, 18} {
		s := New()
		sh := &s.shards[0]
		// Grow shard 0's table to size and empty it again: tables never shrink.
		var fill []wire.ObjectID
		for id := wire.ObjectID(0); len(sh.slots) < size; id++ {
			if hash(id)>>s.shift == 0 {
				s.GetOrCreate(id)
				fill = append(fill, id)
			}
		}
		for _, id := range fill {
			s.Delete(id)
		}
		// Ids of shard 0 whose home is the table's last slot: their run
		// wraps to slots 0, 1, 2, ...
		var wrap []wire.ObjectID
		for id := wire.ObjectID(0); len(wrap) < 5; id++ {
			if h := hash(id); h>>s.shift == 0 && sh.home(h) == size-1 {
				wrap = append(wrap, id)
			}
		}
		for _, id := range wrap {
			s.GetOrCreate(id)
		}
		if len(sh.slots) != size || sh.slots[size-1].ID != wrap[0] || sh.slots[0].ID != wrap[1] {
			t.Fatalf("the run did not wrap around the %d-slot table: %d slots", size, len(sh.slots))
		}
		s.Delete(wrap[1])
		checkIndex(t, s)
		for i, id := range wrap {
			if _, ok := s.Get(id); ok != (i != 1) {
				t.Fatalf("%d slots: after deleting %d from the middle of the run, Get(%d) = %v", size, wrap[1], id, ok)
			}
		}
	}

	s := New()
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
// that already holds it; that worker's second ask is refused as always.
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
	if o.GrantLocalLocked(3) {
		t.Fatal("the holder was granted the object twice")
	}
	if o.LocalOwnerLocked() != 3 {
		t.Fatal("the yield took the object from the worker holding it")
	}
}

// BenchmarkGet looks up ids in a store of 30 000, the benchmark's population
// of one store, in an order no prefetcher follows: ids it holds, and ids it
// does not (a probe ending at an empty slot).
func BenchmarkGet(b *testing.B) {
	const objects = 30000
	s := New()
	for i := wire.ObjectID(0); i < objects; i++ {
		s.GetOrCreate(i)
	}
	for _, c := range []struct {
		name  string
		first wire.ObjectID
	}{{"hit", 0}, {"miss", objects}} {
		b.Run(c.name, func(b *testing.B) {
			x, found := uint64(1), 0
			for i := 0; i < b.N; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				if _, ok := s.Get(c.first + wire.ObjectID(x>>33%objects)); ok {
					found++
				}
			}
			want := 0
			if c.first == 0 {
				want = b.N
			}
			if found != want {
				b.Fatalf("%d of %d lookups found their id, want %d", found, b.N, want)
			}
		})
	}
}
