package baseline

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"zeus/internal/dbapi"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func fromU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func newBaselineCluster(t *testing.T, n int, degree int) []*Node {
	t.Helper()
	hub := transport.NewHub()
	cfg := Config{Nodes: n, Degree: degree}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		tr := hub.Node(wire.NodeID(i))
		nodes[i] = NewNode(wire.NodeID(i), tr, cfg)
		t.Cleanup(func() { tr.Close() })
	}
	return nodes
}

// read returns n's replica of obj through serve, the path every read takes.
func read(n *Node, obj wire.ObjectID) (uint64, []byte, bool) {
	r := n.serve(&wire.BReadReq{Obj: obj})
	return r.Ver, r.Data, r.OK
}

// seedAll installs obj at its primary and backups per the static sharding.
func seedAll(nodes []*Node, obj wire.ObjectID, data []byte) {
	p := nodes[0].Primary(obj)
	nodes[p].Seed(obj, 1, data)
	for _, b := range nodes[0].Backups(obj) {
		nodes[b].Seed(obj, 1, data)
	}
}

func TestLocalReadWrite(t *testing.T) {
	nodes := newBaselineCluster(t, 3, 3)
	seedAll(nodes, 0, []byte("init")) // primary = node 0
	err := dbapi.Run(nodes[0], 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(0)
		if err != nil {
			return err
		}
		if string(v) != "init" {
			t.Errorf("got %q", v)
		}
		return tx.Set(0, []byte("next"))
	})
	if err != nil {
		t.Fatal(err)
	}
	ver, data, ok := read(nodes[0], 0)
	if !ok || ver != 2 || string(data) != "next" {
		t.Fatalf("after commit: v%d %q ok=%v", ver, data, ok)
	}
}

func TestRemoteReadAndCommit(t *testing.T) {
	nodes := newBaselineCluster(t, 3, 3)
	seedAll(nodes, 1, u64(10)) // primary = node 1
	// Node 0 coordinates: read and write via RPC.
	err := dbapi.Run(nodes[0], 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(1)
		if err != nil {
			return err
		}
		return tx.Set(1, u64(fromU64(v)+5))
	})
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0].Stats().RemoteReads == 0 {
		t.Fatal("no remote reads recorded")
	}
	_, data, _ := read(nodes[1], 1)
	if fromU64(data) != 15 {
		t.Fatalf("value = %d", fromU64(data))
	}
	// Backups received the update too.
	for _, b := range nodes[0].Backups(1) {
		_, bd, ok := read(nodes[b], 1)
		if !ok || fromU64(bd) != 15 {
			t.Fatalf("backup %d: %v %d", b, ok, fromU64(bd))
		}
	}
}

func TestOCCConflictAborts(t *testing.T) {
	nodes := newBaselineCluster(t, 3, 3)
	seedAll(nodes, 2, u64(0)) // primary = node 2
	// tx reads, then a conflicting write bumps the version, then commit.
	tx := nodes[0].Begin(0)
	if _, err := tx.Get(2); err != nil {
		t.Fatal(err)
	}
	if err := dbapi.Run(nodes[1], 0, func(tx2 dbapi.Txn) error {
		v, err := tx2.Get(2)
		if err != nil {
			return err
		}
		return tx2.Set(2, u64(fromU64(v)+1))
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(2, u64(99)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, dbapi.ErrConflict) {
		t.Fatalf("expected conflict, got %v", err)
	}
	// The conflicting increment survived.
	_, data, _ := read(nodes[2], 2)
	if fromU64(data) != 1 {
		t.Fatalf("value = %d", fromU64(data))
	}
}

func TestReadOnlyValidation(t *testing.T) {
	nodes := newBaselineCluster(t, 3, 3)
	seedAll(nodes, 3, u64(7)) // primary = node 0
	ro := nodes[1].BeginRO(0)
	v, err := ro.Get(3)
	if err != nil || fromU64(v) != 7 {
		t.Fatalf("get: %v %d", err, fromU64(v))
	}
	// Concurrent write invalidates the read-only snapshot.
	if err := dbapi.Run(nodes[0], 0, func(tx dbapi.Txn) error {
		return tx.Set(3, u64(8))
	}); err != nil {
		t.Fatal(err)
	}
	if err := ro.Commit(); !errors.Is(err, dbapi.ErrConflict) {
		t.Fatalf("RO commit: %v", err)
	}
}

func TestSerializableCounterBaseline(t *testing.T) {
	nodes := newBaselineCluster(t, 3, 3)
	seedAll(nodes, 5, u64(0))
	const perNode = 25
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				err := dbapi.Run(nodes[i], i, func(tx dbapi.Txn) error {
					v, err := tx.Get(5)
					if err != nil {
						return err
					}
					return tx.Set(5, u64(fromU64(v)+1))
				})
				if err != nil {
					t.Errorf("node %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	p := nodes[0].Primary(5)
	_, data, _ := read(nodes[p], 5)
	if fromU64(data) != 3*perNode {
		t.Fatalf("lost updates: %d, want %d", fromU64(data), 3*perNode)
	}
}

func TestMultiObjectCommitAcrossPrimaries(t *testing.T) {
	nodes := newBaselineCluster(t, 3, 3)
	seedAll(nodes, 6, u64(100)) // primary 0
	seedAll(nodes, 7, u64(200)) // primary 1
	err := dbapi.Run(nodes[2], 0, func(tx dbapi.Txn) error {
		a, err := tx.Get(6)
		if err != nil {
			return err
		}
		b, err := tx.Get(7)
		if err != nil {
			return err
		}
		if err := tx.Set(6, u64(fromU64(a)-50)); err != nil {
			return err
		}
		return tx.Set(7, u64(fromU64(b)+50))
	})
	if err != nil {
		t.Fatal(err)
	}
	_, d6, _ := read(nodes[0], 6)
	_, d7, _ := read(nodes[1], 7)
	if fromU64(d6) != 50 || fromU64(d7) != 250 {
		t.Fatalf("transfer broke atomicity: %d %d", fromU64(d6), fromU64(d7))
	}
}

func TestBlindWriteWithoutRead(t *testing.T) {
	nodes := newBaselineCluster(t, 3, 3)
	seedAll(nodes, 8, u64(1))
	err := dbapi.Run(nodes[0], 0, func(tx dbapi.Txn) error {
		return tx.Set(8, u64(42))
	})
	if err != nil {
		t.Fatal(err)
	}
	p := nodes[0].Primary(8)
	_, data, _ := read(nodes[p], 8)
	if fromU64(data) != 42 {
		t.Fatalf("blind write lost: %d", fromU64(data))
	}
}

// A blind write is numbered from its primary's version under the lock, so
// it lands even when the coordinator holds no replica of the object.
func TestRemoteBlindWriteFromNonReplica(t *testing.T) {
	nodes := newBaselineCluster(t, 3, 1)
	nodes[1].Seed(10, 4, u64(1)) // primary = node 1, no backups
	nodes[1].Seed(13, 7, u64(2))
	err := dbapi.Run(nodes[0], 0, func(tx dbapi.Txn) error {
		if err := tx.Set(10, u64(42)); err != nil {
			return err
		}
		return tx.Set(13, u64(43))
	})
	if err != nil {
		t.Fatal(err)
	}
	for obj, want := range map[wire.ObjectID][2]uint64{10: {5, 42}, 13: {8, 43}} {
		ver, data, ok := read(nodes[1], obj)
		if !ok || ver != want[0] || fromU64(data) != want[1] {
			t.Errorf("object %d: v%d %d ok=%v, want v%d %d", obj, ver, fromU64(data), ok, want[0], want[1])
		}
	}
}

func TestSingleNodeBlockingStore(t *testing.T) {
	// Figure 13's "Redis-like blocking store": one server, remote clients.
	hub := transport.NewHub()
	cfg := Config{Nodes: 1, Degree: 1}
	var nodes []*Node
	for i := 0; i < 3; i++ {
		tr := hub.Node(wire.NodeID(i))
		nodes = append(nodes, NewNode(wire.NodeID(i), tr, cfg))
		t.Cleanup(func() { tr.Close() })
	}
	nodes[0].Seed(9, 1, u64(5))
	// Client on node 2: every access is a blocking RPC to node 0.
	err := dbapi.Run(nodes[2], 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(9)
		if err != nil {
			return err
		}
		return tx.Set(9, u64(fromU64(v)*2))
	})
	if err != nil {
		t.Fatal(err)
	}
	_, data, _ := read(nodes[0], 9)
	if fromU64(data) != 10 {
		t.Fatalf("value = %d", fromU64(data))
	}
	if nodes[2].Stats().RemoteReads != 1 {
		t.Fatalf("remote reads = %d", nodes[2].Stats().RemoteReads)
	}
}
