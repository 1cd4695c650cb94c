package policy

import "dfdeques/internal/rtrace"

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
	queued[T]
}

// NewFIFO builds a FIFO policy.
func NewFIFO[T any]() *FIFO[T] {
	f := &FIFO[T]{}
	f.q = NewQueue(func(a, b T) bool { return false })
	return f
}

// Name implements Policy.
func (f *FIFO[T]) Name() string { return "FIFO" }

// Threshold implements Policy: no threshold.
func (f *FIFO[T]) Threshold() int64 { return 0 }

// Seed implements Policy.
func (f *FIFO[T]) Seed(t T) { f.insert(-1, t) }

// Inject implements Policy: injected threads join the tail like any other
// runnable thread.
func (f *FIFO[T]) Inject(t T) { f.insert(-1, t) }

// Charge implements Policy: never vetoes.
func (f *FIFO[T]) Charge(w int, n int64) bool { return true }

// Credit implements Policy.
func (f *FIFO[T]) Credit(w int, n int64) {}

// Wake implements Policy.
func (f *FIFO[T]) Wake(w int, t T) { f.insert(w, t) }

// Next implements Policy.
func (f *FIFO[T]) Next(w int) (T, bool) { return f.take(w) }

// Terminate implements Policy: a woken parent goes to the back of the
// queue like any other runnable thread; the worker takes the queue head.
func (f *FIFO[T]) Terminate(w int, woke T, hasWoke bool) (T, bool) {
	if !hasWoke {
		return f.take(w)
	}
	f.lock()
	f.q.Insert(woke)
	f.traceThread(w, rtrace.EvQueuePush, woke, 0, 0)
	x, ok := f.q.Take() // never fails: woke was just inserted
	f.traceThread(w, rtrace.EvQueueTake, x, 0, 0)
	f.unlock()
	f.steals.Add(1)
	return x, ok
}

// Dummy implements Policy (no quota to consume).
func (f *FIFO[T]) Dummy(w int) {}

// Acquire implements Policy.
func (f *FIFO[T]) Acquire(w int) (T, bool) {
	x, ok := f.take(w)
	return f.acquired(w, x, ok)
}
