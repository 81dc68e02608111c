package transport

import "sync"

// queueKeepCap is the largest backing array a drained queue keeps for its
// next backlog: what a burst grew beyond it goes back to the GC once handled,
// so a burst pins nothing. The benchmark's backlogs stay well below it
// (CHANGES.md, PR 17), so a queue's two arrays reach their capacity once and
// are reused.
const queueKeepCap = 4096

// queue is the one delivery queue of this package: the hub inbox, the
// router's shard queues and the reliable transport's per-peer in-order
// delivery all hand work from any number of senders to one consumer goroutine
// through it. A mutex-guarded slice, not a channel: an idle queue holds
// nothing, where a buffered channel allocates (and the GC scans) its full
// depth up front. FIFO in push order, hence per sender. At bound queued items
// a push blocks until the consumer takes the backlog or the queue closes;
// bound 0 never blocks. Close wakes the parked consumer and every blocked
// sender, drops what is queued and refuses later pushes.
type queue[T any] struct {
	mu     sync.Mutex
	ready  sync.Cond // the consumer parks here while items is empty
	room   sync.Cond // senders park here while items is at the bound
	items  []T
	bound  int
	closed bool
}

func newQueue[T any](bound int) *queue[T] {
	q := &queue[T]{bound: bound}
	q.ready.L, q.room.L = &q.mu, &q.mu
	return q
}

// push queues v behind everything pushed before it. It reports false, v
// dropped, when the queue is closed.
func (q *queue[T]) push(v T) bool {
	if !q.admit() {
		return false
	}
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.ready.Signal()
	return true
}

// pushAll queues vs in order and contiguously — nothing another sender pushes
// comes between them — under one lock and with one wake-up. It waits for room
// like push and then takes all of vs, so the backlog may overshoot the bound
// by len(vs)-1. It reports false, vs dropped, when the queue is closed; vs is
// the caller's again on return.
func (q *queue[T]) pushAll(vs []T) bool {
	if !q.admit() {
		return false
	}
	q.items = append(q.items, vs...)
	q.mu.Unlock()
	q.ready.Signal()
	return true
}

// admit takes the lock and waits for room below the bound. It reports false,
// the lock released again, when the queue is closed.
func (q *queue[T]) admit() bool {
	q.mu.Lock()
	for q.bound > 0 && len(q.items) >= q.bound && !q.closed {
		q.room.Wait()
	}
	if q.closed {
		q.mu.Unlock()
	}
	return !q.closed
}

// run is the consumer loop, returning when the queue is closed: it takes the
// whole backlog in one swap per wake-up, handles it outside the lock, and
// keeps the cleared array as the next swap's queue.
func (q *queue[T]) run(handle func(T)) {
	var batch []T
	for {
		q.mu.Lock()
		for len(q.items) == 0 && !q.closed {
			q.ready.Wait()
		}
		if q.closed {
			q.mu.Unlock()
			return
		}
		batch, q.items = q.items, batch[:0]
		q.mu.Unlock()
		if q.bound > 0 && len(batch) >= q.bound {
			q.room.Broadcast()
		}
		for _, v := range batch {
			handle(v)
		}
		clear(batch) // the array is the next swap's queue: keep no handled item alive in it
		if cap(batch) > queueKeepCap {
			batch = nil
		}
	}
}

func (q *queue[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.items = nil
	q.mu.Unlock()
	q.ready.Broadcast()
	q.room.Broadcast()
}
