package core

// Parked returns the Tx dbapi's run loop parked for the worker, nil if none.
func (n *Node) Parked(worker int) *Tx { return n.parked[worker].Load() }
