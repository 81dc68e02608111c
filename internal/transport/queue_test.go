package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// returnsWithin waits for done, failing the test after 5 s: a hang in the
// queue shows as this message, not as the package timeout.
func returnsWithin(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// staysBlocked asserts done has not fired shortly after the call that should
// block was started (a negative has no event to wait on).
func staysBlocked(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned, want it blocked", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestQueuePerSenderFIFO: four senders push concurrently into a queue small
// enough that they block on each other; the consumer must see each sender's
// items in the order that sender pushed them, and all of them.
func TestQueuePerSenderFIFO(t *testing.T) {
	const senders, perSender = 4, 5000
	type item struct{ sender, seq int }
	q := newQueue[item](8)
	next := make([]int, senders)
	all := make(chan struct{})
	go q.run(func(it item) {
		if it.seq != next[it.sender] {
			t.Errorf("sender %d: got item %d, want %d", it.sender, it.seq, next[it.sender])
		}
		next[it.sender]++
		if it.seq == perSender-1 && allDone(next, perSender) {
			close(all)
		}
	})
	defer q.close()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if !q.push(item{s, i}) {
					t.Errorf("sender %d: push %d refused on an open queue", s, i)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	returnsWithin(t, "every item to be handled", all)
}

func allDone(next []int, want int) bool {
	for _, n := range next {
		if n != want {
			return false
		}
	}
	return true
}

// TestQueueBoundBlocksSender: at the bound a push blocks; it resumes once the
// consumer takes the backlog, and a sender blocked when the queue closes
// returns false.
func TestQueueBoundBlocksSender(t *testing.T) {
	const bound = 4
	q := newQueue[int](bound)
	for i := 0; i < bound; i++ {
		if !q.push(i) {
			t.Fatal("push refused below the bound")
		}
	}
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		if !q.push(bound) {
			t.Error("push at the bound was refused instead of resuming after the drain")
		}
	}()
	staysBlocked(t, "push at the bound", pushed)

	gate := make(chan struct{}) // holds the consumer inside the item it closes on
	var handled atomic.Int64
	drained := make(chan struct{})
	go q.run(func(v int) {
		if int64(v) != handled.Load() {
			t.Errorf("handled %d out of order (want %d)", v, handled.Load())
		}
		if handled.Add(1) == bound+1 {
			close(drained)
			<-gate
		}
	})
	returnsWithin(t, "the blocked push to resume", pushed)
	returnsWithin(t, "the backlog to drain", drained)

	// The consumer is parked in the handler: fill the queue again, block one
	// more sender, close.
	for i := 0; i < bound; i++ {
		q.push(bound + 1 + i)
	}
	refused := make(chan struct{})
	go func() {
		defer close(refused)
		if q.push(-1) {
			t.Error("push blocked at the bound reported success after close")
		}
	}()
	staysBlocked(t, "push at the bound", refused)
	q.close()
	returnsWithin(t, "close to release the blocked sender", refused)
	close(gate)
	if q.push(-1) {
		t.Error("push on a closed queue reported success")
	}
}

// TestQueuePushAll: a pushAll's items are handled in order with nothing
// another sender pushed between them; at the bound it blocks like push, then
// takes the whole batch (overshooting the bound by its length), and a close
// wakes it and drops the batch.
func TestQueuePushAll(t *testing.T) {
	const senders, batches, per = 4, 500, 7
	type item struct{ sender, seq int }
	q := newQueue[item](16)
	var last item
	next := make([]int, senders)
	all := make(chan struct{})
	go q.run(func(it item) {
		if it.seq != next[it.sender] {
			t.Errorf("sender %d: got item %d, want %d", it.sender, it.seq, next[it.sender])
		}
		if it.seq%per != 0 && last.sender != it.sender {
			t.Errorf("sender %d's item came inside sender %d's batch", last.sender, it.sender)
		}
		last = it
		next[it.sender]++
		if allDone(next, batches*per) {
			close(all)
		}
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var batch [per]item
			for b := 0; b < batches; b++ {
				for i := range batch {
					batch[i] = item{s, b*per + i}
				}
				if !q.pushAll(batch[:]) { // the array is reused: pushAll must have copied
					t.Errorf("sender %d: pushAll refused on an open queue", s)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	returnsWithin(t, "every item to be handled", all)
	q.close()

	// No consumer: one below the bound a batch still fits whole; at or past
	// it the next one blocks until the close, which refuses it.
	const bound = 4
	q2 := newQueue[int](bound)
	q2.pushAll([]int{0, 1, 2})
	if !q2.pushAll([]int{3, 4, 5}) {
		t.Fatal("pushAll refused below the bound")
	}
	if n := len(q2.items); n != 6 {
		t.Fatalf("queue holds %d items, want 6 (the bound counts when the push starts)", n)
	}
	refused := make(chan struct{})
	go func() {
		defer close(refused)
		if q2.pushAll([]int{6, 7}) {
			t.Error("pushAll blocked at the bound reported success after close")
		}
	}()
	staysBlocked(t, "pushAll past the bound", refused)
	q2.close()
	returnsWithin(t, "close to release the blocked pushAll", refused)
}

// TestQueueCloseWakesParkedConsumer: run returns on close even when nothing
// was ever pushed.
func TestQueueCloseWakesParkedConsumer(t *testing.T) {
	for _, bound := range []int{0, 4} {
		q := newQueue[int](bound)
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			q.run(func(int) { t.Error("handler called on an empty queue") })
		}()
		q.close()
		returnsWithin(t, "run to return after close", stopped)
	}
}

// TestQueueReleasesBurstArray: a burst grows the array far past
// queueKeepCap; once it has drained neither of the two arrays the queue swaps
// between may be that large, or one quiet node would pin its worst moment.
func TestQueueReleasesBurstArray(t *testing.T) {
	const burst = 10000
	q := newQueue[*int](0)
	defer q.close()
	gate := make(chan struct{})
	var handled atomic.Int64
	go q.run(func(*int) {
		<-gate
		handled.Add(1)
	})
	for i := 0; i < burst; i++ {
		q.push(new(int))
	}
	close(gate)
	waitFor(t, "the burst to drain", func() bool { return handled.Load() == burst })
	// Each further item makes the consumer swap once, so two rounds show both
	// arrays as q.items.
	for round := int64(1); round <= 2; round++ {
		q.push(new(int))
		waitFor(t, "the item after the burst", func() bool { return handled.Load() == burst+round })
		q.mu.Lock()
		kept := cap(q.items)
		q.mu.Unlock()
		if kept > queueKeepCap {
			t.Fatalf("round %d: the queue still holds a %d-slot array after the burst, want at most %d", round, kept, queueKeepCap)
		}
	}
}
