package cluster

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/dbapi"
	"zeus/internal/wire"
)

// A version's payload in the torture below: its counter in every 8-byte word,
// each xored with the word's index, so a slice that was partly overwritten —
// or that now holds a different version — does not decode.
const viewWords = 8

func viewPayload(v uint64) []byte {
	b := make([]byte, 8*viewWords)
	for w := uint64(0); w < viewWords; w++ {
		binary.LittleEndian.PutUint64(b[8*w:], v^w)
	}
	return b
}

func viewDecode(b []byte) (uint64, bool) {
	if len(b) != 8*viewWords {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(b)
	for w := uint64(1); w < viewWords; w++ {
		if binary.LittleEndian.Uint64(b[8*w:])^w != v {
			return v, false
		}
	}
	return v, true
}

// TestViewImmutabilityTorture: Get returns a view, so whatever memory a
// payload lives in — the writer's own buffer, which Set adopts and the hub's
// followers install as it is, or the slab a TCP read loop decoded it into —
// must never be written or reused while anyone can still hold it. Readers on
// all three replicas keep every slice they Get, with the value it decoded to,
// while writers on two nodes commit (and move one object between them, so the
// ownership ACK's payload is on the path too); afterwards every retained
// slice must still decode to the same value. Run under -race: a recycled
// buffer is also a data race between its next writer and these readers.
func TestViewImmutabilityTorture(t *testing.T) {
	for _, f := range []struct {
		name string
		kind FabricKind
	}{{"mem", FabricMem}, {"tcp", FabricTCP}} {
		t.Run(f.name, func(t *testing.T) { viewTorture(t, f.kind) })
	}
}

func viewTorture(t *testing.T, kind FabricKind) {
	opts := DefaultOptions(3)
	opts.Fabric = kind
	opts.Workers = 4
	c := New(opts)
	defer c.Close()
	const objects = 4
	for obj := uint64(1); obj <= objects; obj++ {
		c.SeedAt(wire.ObjectID(obj), 0, viewPayload(0))
	}
	duration := time.Second
	if testing.Short() {
		duration = 200 * time.Millisecond
	}

	type held struct {
		data []byte
		val  uint64
	}
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		commits atomic.Uint64
		kept    [3][]held // per reader; one goroutine each
	)
	// Node 0 writes objects 1–3 and node 1 object 4, so nearly every version
	// is made where the object lives, at full speed; every 64th write of node
	// 1 goes to object 1 instead, which moves its ownership there and back.
	for node, own := range [][]uint64{{1, 2, 3}, {4}} {
		wg.Add(1)
		go func(node int, own []uint64) {
			defer wg.Done()
			db := c.Node(node).DB()
			for i := uint64(0); !stop.Load(); i++ {
				obj := own[i%uint64(len(own))]
				if node == 1 && i%64 == 63 {
					obj = 1
				}
				err := dbapi.Run(db, node, func(tx dbapi.Txn) error {
					v, err := tx.Get(obj)
					if err != nil {
						return err
					}
					cur, ok := viewDecode(v)
					if !ok {
						t.Errorf("node %d read a torn payload of object %d", node, obj)
					}
					return tx.Set(obj, viewPayload(cur+1))
				})
				if err != nil {
					t.Errorf("writer on node %d: %v", node, err)
					return
				}
				commits.Add(1)
			}
		}(node, own)
	}
	for node := 0; node < 3; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			db := c.Node(node).DB()
			var last [objects + 1]*byte
			for i := uint64(0); !stop.Load(); i++ {
				obj := 1 + i%objects
				var v []byte
				err := dbapi.RunRO(db, 3, func(tx dbapi.Txn) (err error) {
					v, err = tx.Get(obj)
					return err
				})
				if err != nil {
					t.Errorf("reader on node %d: %v", node, err)
					return
				}
				// One entry per backing array: reading a version a second
				// time returns the same memory.
				if len(v) == 0 || &v[0] == last[obj] {
					continue
				}
				last[obj] = &v[0]
				val, ok := viewDecode(v)
				if !ok {
					t.Errorf("reader on node %d read a torn payload of object %d", node, obj)
				}
				kept[node] = append(kept[node], held{v, val})
			}
		}(node)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	if !c.WaitIdle(5 * time.Second) {
		t.Fatal("WaitIdle timed out")
	}
	total := 0
	for node := range kept {
		total += len(kept[node])
		for _, h := range kept[node] {
			if now, ok := viewDecode(h.data); !ok || now != h.val {
				t.Fatalf("a slice node %d read as %d decodes to %d (intact %v) after %d later commits",
					node, h.val, now, ok, commits.Load())
			}
		}
	}
	t.Logf("%d commits; %d retained slices intact", commits.Load(), total)
	if total < 3*objects {
		t.Fatalf("readers retained %d slices: the torture did not run", total)
	}
}
