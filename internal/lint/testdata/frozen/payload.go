// Package frozen exercises the frozen analyzer, one file per source of
// frozen memory: payload.go and view.go the payload views, frozen from
// birth; set.go and seed.go the []byte a Set or Seed adopts; send.go the wire
// message a send hands over; wal.go the records an Append keeps.
//
// Every line flagged here is a variant of one lost update: an in-place
// write to the zero-copy payload that SnapshotRef, the ownership ACK
// piggyback and the FabricMem delivery path may all still alias. Replacing
// the payload is no longer in the fixture: outside the store package it does
// not compile.
package frozen

import (
	"io"

	"zeus/internal/store"
)

// mutateDirect covers the in-place write shapes on the getter's result.
func mutateDirect(o *store.Object, src []byte, r io.Reader) {
	o.Mu.Lock()
	defer o.Mu.Unlock()
	o.DataLocked()[0] = 1                 // want `in-place element write to the store\.Object payload`
	o.DataLocked()[1]++                   // want `in-place element write to the store\.Object payload`
	_ = append(o.DataLocked(), src...)    // want `append to the store\.Object payload`
	copy(o.DataLocked(), src)             // want `copy into the store\.Object payload`
	copy(o.DataLocked()[4:], src)         // want `copy into the store\.Object payload`
	clear(o.DataLocked())                 // want `clear of the store\.Object payload`
	_, _ = r.Read(o.DataLocked())         // want `store\.Object payload passed as Read's fill buffer`
	_, _ = io.ReadFull(r, o.DataLocked()) // want `store\.Object payload passed as ReadFull's fill buffer`
}

// mutatePiggyback is the PR-4/PR-5 regression shape: the ownership ACK
// piggyback (ack.Data = o.DataLocked()) aliases the store payload, and
// scribbling on the alias after Mu is released corrupts every concurrent
// snapshot reader.
func mutatePiggyback(o *store.Object) []byte {
	o.Mu.Lock()
	d := o.DataLocked()
	o.Mu.Unlock()
	d[0] ^= 0xff // want `in-place element write to the store\.Object payload`
	return d
}

// mutateAliasBuiltins: the alias carries the taint into the builtins too.
func mutateAliasBuiltins(o *store.Object, src []byte) {
	o.Mu.Lock()
	buf := o.DataLocked()
	o.Mu.Unlock()
	copy(buf, src) // want `copy into the store\.Object payload`
	clear(buf)     // want `clear of the store\.Object payload`
}

// readersAreFine: reads, copies OUT of the payload, and fresh slices never
// flag.
func readersAreFine(o *store.Object, dst []byte) byte {
	o.Mu.Lock()
	defer o.Mu.Unlock()
	copy(dst, o.DataLocked()) // copying out of the payload is a read
	fresh := make([]byte, len(o.DataLocked()))
	copy(fresh, o.DataLocked())
	fresh[0] = 1
	return o.DataLocked()[0]
}

// waived proves //lint:allow suppresses a finding (reason is mandatory).
func waived(o *store.Object) {
	o.Mu.Lock()
	defer o.Mu.Unlock()
	o.DataLocked()[0] = 0 //lint:allow frozen fixture demonstrates the waiver syntax
}
