package policy

import (
	"slices"
	"sort"
	"sync/atomic"

	"dfdeques/internal/rtrace"
)

// Queue is the global-queue policies' ready list: every ready thread in
// one slice, highest priority first, equals in arrival order. ADF orders
// it by 1DF priority; FIFO's order ranks nothing above anything, so its
// insert is an append. Take consumes from the front and compacts the
// consumed prefix, so it is O(1) amortized. Not synchronized: the policy
// wraps it in its queue lock.
type Queue[T any] struct {
	less  func(a, b T) bool // true: a runs before b
	items []T
	head  int // items[:head] is consumed
}

// NewQueue returns an empty queue ordered by less (true means a runs
// before b).
func NewQueue[T any](less func(a, b T) bool) *Queue[T] {
	return &Queue[T]{less: less}
}

// Len reports the number of queued threads.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Insert places t after every queued thread that does not rank below it.
func (q *Queue[T]) Insert(t T) {
	live := q.items[q.head:]
	i := sort.Search(len(live), func(i int) bool { return q.less(t, live[i]) })
	q.items = slices.Insert(q.items, q.head+i, t)
}

// Take removes and returns the front thread.
func (q *Queue[T]) Take() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	x := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head > 1024 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return x, true
}

// queued is the body ADF and FIFO share: one Queue behind a counted lock,
// a lock-free mirror of its length, and the count of takes. Queue events
// are recorded under the lock, which makes their sequence a linearization
// of the queue's history.
type queued[T any] struct {
	countedLock
	tracer[T]
	q      *Queue[T]
	ready  atomic.Int64 // queue length mirror: HasWork without the lock
	steals atomic.Int64
}

// insert publishes t on behalf of worker w (-1: from outside the
// workers). The ready mirror is raised before the caller checks for idle
// workers, so the park protocol cannot lose the wake-up.
func (q *queued[T]) insert(w int, t T) {
	q.lock()
	q.q.Insert(t)
	q.traceThread(w, rtrace.EvQueuePush, t, 0, 0)
	q.unlock()
	q.ready.Add(1)
}

// take takes the front thread for worker w, counting the shared-queue
// dispatch as a steal. A provably empty queue is screened out by the
// lock-free ready mirror, so idle workers polling for work never pile onto
// the queue lock (a publisher raises the mirror only after its insert, so
// a false negative here is indistinguishable from arriving a moment
// earlier).
func (q *queued[T]) take(w int) (T, bool) {
	if q.ready.Load() == 0 {
		var zero T
		return zero, false
	}
	q.lock()
	x, ok := q.q.Take()
	if ok {
		q.traceThread(w, rtrace.EvQueueTake, x, 0, 0)
	}
	q.unlock()
	if !ok {
		return x, false
	}
	q.ready.Add(-1)
	q.steals.Add(1)
	return x, true
}

// ForkCont implements Policy for ADF and FIFO: the fork is recorded and
// the child enters the queue, at its priority position under ADF, at the
// tail under FIFO; the parent keeps running. ADF's quota is NOT reset —
// the parent's dispatch continues; only a real dispatch out of the queue
// refills it (footnote 14 charges per scheduled thread, and the running
// parent was already charged).
func (q *queued[T]) ForkCont(w int, parent, child T) {
	q.traceFork(w, rtrace.EvFork, parent, child, 0)
	q.insert(w, child)
}

// JoinPop implements Policy: the global queue has no owner-local claim —
// an inline join would bypass the queue's order, so the parent always
// parks and the child is dispatched from the queue.
func (q *queued[T]) JoinPop(w int, parent, child T) bool { return false }

// Preempt implements Policy: the promotion, the veto and the turn to
// stealing are recorded, and the thread goes back to the queue.
// Unreachable under FIFO, whose Charge never vetoes.
func (q *queued[T]) Preempt(w int, t T, n int64, promoted bool) {
	if promoted {
		q.traceThread(w, rtrace.EvPromote, t, 1, 0)
	}
	q.traceThread(w, rtrace.EvQuotaExhaust, t, n, 0)
	q.trace(w, rtrace.EvIdle, 0, 0, 0)
	q.insert(w, t)
}

// acquired ends a queue policy's Acquire: it records the dispatch of x
// if the take got one.
func (q *queued[T]) acquired(w int, x T, ok bool) (T, bool) {
	if ok {
		q.traceThread(w, rtrace.EvDispatch, x, rtrace.SrcAcquire, 0)
	}
	return x, ok
}

// Pause implements Policy: a failed take records nothing.
func (q *queued[T]) Pause(w int) {}

// HasWork implements Policy.
func (q *queued[T]) HasWork() bool { return q.ready.Load() > 0 }

// Stats implements Policy.
func (q *queued[T]) Stats() Stats {
	return Stats{Steals: q.steals.Load(), LockOps: q.lockOps.Load(), LockWaitNs: q.lockWaitNs.Load(), MaxDeques: 1}
}
