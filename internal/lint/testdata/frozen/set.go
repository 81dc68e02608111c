package frozen

import (
	"encoding/binary"

	"zeus"
	"zeus/internal/core"
	"zeus/internal/dbapi"
)

// A transaction's Set adopts the slice it is handed as the version the commit
// publishes. loopReuse, closureReuse and outerArrayReuse stage each value in
// one long-lived buffer and rewrite it for the next write; writeAfterSet
// writes a buffer it already handed over.

func loopReuse(n *zeus.Node, iters int) {
	buf := make([]byte, 128)
	for i := 0; i < iters; i++ {
		tx := n.BeginOn(0)
		v, _ := tx.Get(1)
		copy(buf, v)                                  // want `copy into buf in a loop that hands it to Set`
		binary.LittleEndian.PutUint64(buf, uint64(i)) // want `buf passed as PutUint64's fill buffer in a loop that hands it to Set`
		_ = tx.Set(1, buf)
		_ = tx.Commit()
	}
}

func closureReuse(db dbapi.DB) error {
	buf := make([]byte, 8)
	bump := func(tx dbapi.Txn, obj uint64) error {
		v, _ := tx.Get(obj)
		binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(v)+1) // want `buf passed as PutUint64's fill buffer in a func literal that hands the captured buf to Set`
		return tx.Set(obj, buf)
	}
	return dbapi.Run(db, 0, func(tx dbapi.Txn) error { return bump(tx, 1) })
}

func outerArrayReuse(n *core.Node, workers int) func(w int) error {
	bufs := make([][128]byte, workers)
	return func(w int) error {
		obj, buf := uint64(1+w), bufs[w][:]
		tx := n.BeginOn(w)
		buf[0]++ // want `in-place element write to buf in a func literal that hands the captured bufs to Set`
		_ = tx.Set(obj, buf)
		return tx.Commit()
	}
}

func writeAfterSet(tx *core.Tx, src []byte) {
	staged := make([]byte, 8)
	_ = tx.Set(1, staged)
	staged[0] = 9                         // want `in-place element write to staged after it was handed to Set`
	copy(staged[4:], src)                 // want `copy into staged\[4:\] after it was handed to Set`
	_ = append(staged[:0], src...)        // want `append to staged\[:0\] after it was handed to Set`
	binary.BigEndian.PutUint32(staged, 1) // want `staged passed as PutUint32's fill buffer after it was handed to Set`
	var arr [8]byte
	_ = tx.Set(2, arr[:])
	arr[1] = 1 // want `in-place element write to arr after it was handed to Set`
}

// freshPerSet is legal: a new slice for every Set, written before it is
// handed over; a buffer assigned a new array before it is written again; one
// slice several versions share but nobody writes; a range variable, which is
// a new element every iteration; and a waived line.
func freshPerSet(db dbapi.DB, tx *zeus.Tx) {
	for i := 0; i < 3; i++ {
		_ = dbapi.Run(db, 0, func(tx dbapi.Txn) error {
			v, _ := tx.Get(1)
			next := append([]byte(nil), v...)
			next[0]++
			return tx.Set(1, next)
		})
	}
	buf := make([]byte, 8)
	_ = tx.Set(2, buf)
	buf = make([]byte, 8)
	buf[0] = 1
	_ = tx.Set(3, buf)
	shared := []byte("same")
	for obj := uint64(4); obj < 7; obj++ {
		_ = tx.Set(obj, shared)
	}
	for i, b := range [][]byte{make([]byte, 8), make([]byte, 8)} {
		b[0] = byte(i)
		_ = tx.Set(uint64(10+i), b)
	}
	staged := make([]byte, 8)
	_ = tx.Set(20, staged)
	staged[0] = 1 //lint:allow frozen fixture demonstrates the waiver on the Set half
}
