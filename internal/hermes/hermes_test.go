package hermes

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

func newKVGroup(t *testing.T, n int) []*KV {
	t.Helper()
	var members wire.Bitmap
	for i := 0; i < n; i++ {
		members = members.Add(wire.NodeID(i))
	}
	hub := transport.NewHub()
	mgr := viewsvc.NewSelfHosted(viewsvc.Config{Lease: time.Millisecond}, members)
	t.Cleanup(mgr.Close)
	kvs := make([]*KV, n)
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		tr := hub.Node(id)
		r := transport.NewRouter()
		kvs[i] = New(id, members, tr, mgr.Agent(id))
		kvs[i].Register(r)
		tr.SetHandler(r.Dispatch)
		t.Cleanup(func() { tr.Close() })
	}
	return kvs
}

func TestPutThenLocalReadEverywhere(t *testing.T) {
	kvs := newKVGroup(t, 3)
	if err := kvs[0].Put(7, []byte("dest")); err != nil {
		t.Fatal(err)
	}
	for i, kv := range kvs {
		deadline := time.Now().Add(time.Second)
		for {
			v, ok, err := kv.Get(7)
			if err == nil && ok && string(v) == "dest" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never validated: %q %v %v", i, v, ok, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func TestGetMissingKey(t *testing.T) {
	kvs := newKVGroup(t, 2)
	v, ok, err := kvs[0].Get(99)
	if v != nil || ok || err != nil {
		t.Fatalf("missing key: %q %v %v", v, ok, err)
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	kvs := newKVGroup(t, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = kvs[i].Put(5, []byte(fmt.Sprintf("writer%d", i)))
		}(i)
	}
	wg.Wait()
	// All replicas converge to the same (highest-timestamp) value.
	deadline := time.Now().Add(2 * time.Second)
	for {
		vals := make([]string, 3)
		allValid := true
		for i, kv := range kvs {
			v, ok, err := kv.Get(5)
			if err != nil || !ok {
				allValid = false
				break
			}
			vals[i] = string(v)
		}
		if allValid && vals[0] == vals[1] && vals[1] == vals[2] {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas diverged: %v", vals)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestOverwriteVersionsMonotonic(t *testing.T) {
	kvs := newKVGroup(t, 3)
	for i := 0; i < 10; i++ {
		w := kvs[i%3]
		if err := w.Put(1, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, ok, err := kvs[0].Get(1)
		if err == nil && ok && string(v) == "v9" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("final value %q ok=%v err=%v", v, ok, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestGetWaitRidesOutInvalidation(t *testing.T) {
	kvs := newKVGroup(t, 3)
	if err := kvs[0].Put(3, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Wait for the write to validate at replica 1, then manually
	// invalidate with a higher timestamp, as if a new write were in
	// flight (a stray VAL of the old write cannot re-validate it).
	if _, _, err := kvs[1].GetWait(3, time.Second); err != nil {
		t.Fatal(err)
	}
	kvs[1].mu.Lock()
	e := kvs[1].entries[3]
	e.state = invalid
	e.ts.Ver++
	kvs[1].mu.Unlock()
	// GetWait bounds the wait and reports ErrInvalid on expiry.
	_, _, err := kvs[1].GetWait(3, 5*time.Millisecond)
	if err != ErrInvalid {
		t.Fatalf("err = %v", err)
	}
	// Validating releases the reader.
	kvs[1].mu.Lock()
	e.state = valid
	kvs[1].mu.Unlock()
	v, ok, err := kvs[1].GetWait(3, time.Second)
	if err != nil || !ok || string(v) != "a" {
		t.Fatalf("after validation: %q %v %v", v, ok, err)
	}
}

func TestSingleReplicaFastPath(t *testing.T) {
	kvs := newKVGroup(t, 1)
	if err := kvs[0].Put(1, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := kvs[0].Get(1)
	if err != nil || !ok || string(v) != "solo" {
		t.Fatalf("%q %v %v", v, ok, err)
	}
	if kvs[0].Len() != 1 {
		t.Fatalf("len = %d", kvs[0].Len())
	}
}
