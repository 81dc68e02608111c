package frozen

import (
	"encoding/binary"
	"io"

	"zeus"
	"zeus/internal/core"
	"zeus/internal/dbapi"
)

// mutateView: a transaction's Get returns a view of the committed version,
// so every in-place shape is flagged on its first result, whichever of the
// three Get methods produced it.
func mutateView(tx *core.Tx, src []byte, r io.Reader) error {
	v, err := tx.Get(1)
	if err != nil {
		return err
	}
	v[0] = 1                                // want `in-place element write to the store\.Object payload`
	v[1]++                                  // want `in-place element write to the store\.Object payload`
	_ = append(v, '.')                      // want `append to the store\.Object payload`
	copy(v[4:], src)                        // want `copy into the store\.Object payload`
	clear(v)                                // want `clear of the store\.Object payload`
	_, _ = r.Read(v)                        // want `store\.Object payload passed as Read's fill buffer`
	binary.LittleEndian.PutUint64(v, 7)     // want `store\.Object payload passed as PutUint64's fill buffer`
	binary.BigEndian.PutUint32(v[8:], 7)    // want `store\.Object payload passed as PutUint32's fill buffer`
	binary.LittleEndian.PutUint16(v[:2], 7) // want `store\.Object payload passed as PutUint16's fill buffer`
	return tx.Set(1, v)
}

// mutateViewThroughInterface is the benchmark-loop shape: read, patch the
// counter in place, write back.
func mutateViewThroughInterface(tx dbapi.Txn, i uint64) error {
	var v []byte
	var err error
	v, err = tx.Get(1) // plain assignment taints too
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(v, i) // want `store\.Object payload passed as PutUint64's fill buffer`
	return tx.Set(1, v)
}

func mutateViewPublic(tx *zeus.Tx) error {
	v, err := tx.Get(1)
	if err != nil {
		return err
	}
	w := v[8:]
	w[0] = 0 // want `in-place element write to the store\.Object payload`
	return nil
}

// copyThenWrite is the legal form: the copy is the caller's, written before
// Set adopts it as the version it publishes.
func copyThenWrite(tx dbapi.Txn, i uint64) error {
	v, err := tx.Get(1)
	if err != nil {
		return err
	}
	own := append([]byte(nil), v...)
	binary.LittleEndian.PutUint64(own, i)
	own[8] = 1
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:], binary.LittleEndian.Uint64(v)+1) // the view is only read
	if err := tx.Set(2, buf[:]); err != nil {
		return err
	}
	return tx.Set(1, own)
}
