package policy

import (
	"sync/atomic"

	"dfdeques/internal/rtrace"
)

// FIFOQueue is the original Pthreads library's run queue: one global FIFO
// with a compacting consumed prefix. Not synchronized: the FIFO policy
// wraps it in its queue mutex.
type FIFOQueue[T any] struct {
	items []T
	head  int
}

// Len reports the number of queued threads.
func (q *FIFOQueue[T]) Len() int { return len(q.items) - q.head }

// Push appends t to the tail.
func (q *FIFOQueue[T]) Push(t T) { q.items = append(q.items, t) }

// Pop removes and returns the head.
func (q *FIFOQueue[T]) Pop() (T, bool) {
	var zero T
	if q.head >= len(q.items) {
		return zero, false
	}
	x := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head > 1024 && q.head*2 >= len(q.items) {
		// Compact the consumed prefix.
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return x, true
}

// FIFO is the original Solaris Pthreads library scheduler (§5) as a
// runtime policy: a single global FIFO run queue. A forked child is
// appended and the parent keeps running, so the computation unfolds
// breadth-first — which is what blows up the number of simultaneously
// live threads (Fig. 11).
//
// FIFO has no memory threshold, as in the paper's Pthreads library: Charge
// never vetoes (nothing would ever replenish a vetoed dispatch's quota, so
// a veto would requeue the thread forever), and Threshold is 0, so no
// allocation is delayed behind dummy threads. Both engines run it so.
type FIFO[T any] struct {
	mu queueLock
	q  FIFOQueue[T]

	// Tracing (nil probe: disabled); queue events are recorded under mu.
	probe rtrace.Probe
	tidOf func(T) int64

	ready  atomic.Int64
	steals atomic.Int64
}

// NewFIFO builds a FIFO policy.
func NewFIFO[T any]() *FIFO[T] { return &FIFO[T]{} }

// Instrument attaches a trace probe (see internal/rtrace). Call before
// the policy is shared.
func (f *FIFO[T]) Instrument(p rtrace.Probe, tid func(T) int64) {
	f.probe = p
	f.tidOf = tid
}

// MeasureLockWait turns on timing of the waits for the queue mutex
// (Stats.LockWaitNs). Call before the policy is shared.
func (f *FIFO[T]) MeasureLockWait() { f.mu.timeWait = true }

// Name implements Policy.
func (f *FIFO[T]) Name() string { return "FIFO" }

// Threshold implements Policy: no threshold.
func (f *FIFO[T]) Threshold() int64 { return 0 }

// Seed implements Policy.
func (f *FIFO[T]) Seed(t T) { f.push(-1, t) }

// Inject implements Policy: injected threads join the tail like any other
// runnable thread.
func (f *FIFO[T]) Inject(t T) { f.push(-1, t) }

// ForkCont implements Policy: the child is enqueued, the parent continues
// (breadth-first).
func (f *FIFO[T]) ForkCont(w int, parent, child T) { f.push(w, child) }

// JoinPop implements Policy: the global FIFO has no owner-local claim;
// the parent parks and the child drains through the queue in order.
func (f *FIFO[T]) JoinPop(w int, child T) bool { return false }

// Charge implements Policy: never vetoes.
func (f *FIFO[T]) Charge(w int, n int64) bool { return true }

// Credit implements Policy.
func (f *FIFO[T]) Credit(w int, n int64) {}

// Preempt implements Policy (unreachable: Charge never vetoes).
func (f *FIFO[T]) Preempt(w int, t T) { f.push(w, t) }

// Wake implements Policy.
func (f *FIFO[T]) Wake(w int, t T) { f.push(w, t) }

// Next implements Policy.
func (f *FIFO[T]) Next(w int) (T, bool) { return f.fifoPop(w) }

// Terminate implements Policy: a woken parent goes to the back of the
// queue like any other runnable thread; the worker takes the queue head.
func (f *FIFO[T]) Terminate(w int, woke T, hasWoke bool) (T, bool) {
	if !hasWoke {
		return f.fifoPop(w)
	}
	f.mu.lock()
	f.q.Push(woke)
	f.traceLocked(w, rtrace.EvQueuePush, woke)
	x, ok := f.q.Pop() // never fails: woke was just pushed
	if ok {
		f.traceLocked(w, rtrace.EvQueueTake, x)
	}
	f.mu.unlock()
	f.steals.Add(1)
	return x, ok
}

// Dummy implements Policy (no quota to consume).
func (f *FIFO[T]) Dummy(w int) {}

// Acquire implements Policy.
func (f *FIFO[T]) Acquire(w int) (T, bool) { return f.fifoPop(w) }

// HasWork implements Policy.
func (f *FIFO[T]) HasWork() bool { return f.ready.Load() > 0 }

// Stats implements Policy.
func (f *FIFO[T]) Stats() Stats {
	return Stats{Steals: f.steals.Load(), LockOps: f.mu.ops.Load(), LockWaitNs: f.mu.waitNs.Load(), MaxDeques: 1}
}

func (f *FIFO[T]) push(w int, t T) {
	f.mu.lock()
	f.q.Push(t)
	f.traceLocked(w, rtrace.EvQueuePush, t)
	f.mu.unlock()
	f.ready.Add(1)
}

// fifoPop takes the queue head for worker w, counting the shared-queue
// dispatch. The lock-free ready mirror screens out a provably empty
// queue so idle pollers never contend on the mutex (see ADF.adfPop for
// why the mirror's false negatives are benign).
func (f *FIFO[T]) fifoPop(w int) (T, bool) {
	if f.ready.Load() == 0 {
		var zero T
		return zero, false
	}
	f.mu.lock()
	x, ok := f.q.Pop()
	if ok {
		f.traceLocked(w, rtrace.EvQueueTake, x)
	}
	f.mu.unlock()
	if !ok {
		return x, false
	}
	f.ready.Add(-1)
	f.steals.Add(1)
	return x, true
}

// traceLocked records a queue event; the caller holds f.mu, which is what
// makes the sequence a linearization of the queue's history.
func (f *FIFO[T]) traceLocked(w int, k rtrace.Kind, t T) {
	if f.probe != nil {
		f.probe.Event(w, k, f.tidOf(t), 0, 0)
	}
}
