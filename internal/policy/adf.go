package policy

import (
	"fmt"
	"sort"
	"sync/atomic"

	"dfdeques/internal/rtrace"
)

// PrioQueue is the ADF ready queue: all ready threads in one list sorted
// by 1DF priority, highest first. It is not synchronized: the ADF policy
// wraps it in its queue mutex.
type PrioQueue[T any] struct {
	less  func(a, b T) bool // higher priority first
	items []T
}

// NewPrioQueue returns an empty priority queue ordered by less (true
// means a runs before b).
func NewPrioQueue[T any](less func(a, b T) bool) *PrioQueue[T] {
	return &PrioQueue[T]{less: less}
}

// Len reports the number of queued threads.
func (q *PrioQueue[T]) Len() int { return len(q.items) }

// At returns the i-th queued thread (0 = highest priority); for invariant
// checkers and tests.
func (q *PrioQueue[T]) At(i int) T { return q.items[i] }

// Insert places t at its priority position.
func (q *PrioQueue[T]) Insert(t T) {
	i := sort.Search(len(q.items), func(i int) bool {
		return q.less(t, q.items[i])
	})
	var zero T
	q.items = append(q.items, zero)
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = t
}

// Take removes and returns the highest-priority thread.
func (q *PrioQueue[T]) Take() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	x := q.items[0]
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
	return x, true
}

// ADF is the asynchronous depth-first scheduler of Narlikar & Blelloch as
// a runtime policy: one global queue ordered by 1DF priority, each
// dispatch charged a fresh memory quota of K bytes (footnote 14). Every
// dispatch goes through the shared queue — the scheduling granularity is
// a single thread, which is exactly the contention DFDeques exists to
// avoid; the LockOps counter makes that visible.
type ADF[T any] struct {
	mu    queueLock
	q     *PrioQueue[T]
	quota *Quota
	k     int64

	// Tracing (nil probe: disabled); queue events are recorded under mu.
	probe rtrace.Probe
	tidOf func(T) int64

	ready  atomic.Int64 // queue length mirror: HasWork without the lock
	steals atomic.Int64
}

// NewADF builds an ADF(K) policy for p workers ordered by less.
func NewADF[T any](p int, k int64, less func(a, b T) bool) *ADF[T] {
	return &ADF[T]{q: NewPrioQueue(less), quota: NewQuota(p), k: k}
}

// Instrument attaches a trace probe (see internal/rtrace). Call before
// the policy is shared.
func (a *ADF[T]) Instrument(p rtrace.Probe, tid func(T) int64) {
	a.probe = p
	a.tidOf = tid
}

// MeasureLockWait turns on timing of the waits for the queue mutex
// (Stats.LockWaitNs). Call before the policy is shared.
func (a *ADF[T]) MeasureLockWait() { a.mu.timeWait = true }

// Name implements Policy.
func (a *ADF[T]) Name() string { return "ADF" }

// Threshold implements Policy.
func (a *ADF[T]) Threshold() int64 { return a.k }

// Seed implements Policy.
func (a *ADF[T]) Seed(t T) { a.insert(-1, t) }

// Inject implements Policy: the priority-positioned insert already serves
// mid-run injection.
func (a *ADF[T]) Inject(t T) { a.insert(-1, t) }

// ForkCont implements Policy: the child enters the queue at its priority
// position and the parent keeps running.
// The quota is NOT reset — the parent's dispatch continues; only a real
// dispatch out of the queue refills it (footnote 14 charges per
// scheduled thread, and the running parent was already charged).
func (a *ADF[T]) ForkCont(w int, parent, child T) { a.insert(w, child) }

// ForkChildFirst is the simulator's fork, a serial-engine entry: the
// parent enters the queue at its priority position and the child, which
// holds the priority just above it, runs next on w with a fresh quota —
// footnote 14 charges each scheduled thread, and the child is one. The
// runtime forks parent-first (ForkCont), and the parent's dispatch goes on.
func (a *ADF[T]) ForkChildFirst(w int, parent T) {
	a.insert(w, parent)
	a.quota.Reset(w, a.k)
}

// JoinPop implements Policy: the global queue has no owner-local claim —
// an inline join would bypass the queue's priority order, so the parent
// always parks and the child is dispatched normally.
func (a *ADF[T]) JoinPop(w int, child T) bool { return false }

// Charge implements Policy.
func (a *ADF[T]) Charge(w int, n int64) bool { return a.quota.Charge(w, n, a.k) }

// Credit implements Policy.
func (a *ADF[T]) Credit(w int, n int64) { a.quota.Credit(w, n, a.k) }

// Preempt implements Policy: back to the queue at its priority position.
func (a *ADF[T]) Preempt(w int, t T) { a.insert(w, t) }

// Wake implements Policy.
func (a *ADF[T]) Wake(w int, t T) { a.insert(w, t) }

// Next implements Policy.
func (a *ADF[T]) Next(w int) (T, bool) { return a.adfPop(w) }

// Terminate implements Policy: a woken parent continues on the same
// worker with a fresh quota (it is the highest-priority ready thread the
// worker can reach without a queue access).
func (a *ADF[T]) Terminate(w int, woke T, hasWoke bool) (T, bool) {
	if hasWoke {
		a.quota.Reset(w, a.k)
		return woke, true
	}
	return a.adfPop(w)
}

// Dummy implements Policy: the dummy consumed the dispatch's quota.
func (a *ADF[T]) Dummy(w int) { a.quota.Reset(w, 0) }

// Acquire implements Policy.
func (a *ADF[T]) Acquire(w int) (T, bool) { return a.adfPop(w) }

// HasWork implements Policy.
func (a *ADF[T]) HasWork() bool { return a.ready.Load() > 0 }

// Stats implements Policy.
func (a *ADF[T]) Stats() Stats {
	return Stats{Steals: a.steals.Load(), LockOps: a.mu.ops.Load(), LockWaitNs: a.mu.waitNs.Load(), MaxDeques: 1}
}

// CheckInvariants verifies that the ready queue is priority-sorted (serial
// engines and tests only).
func (a *ADF[T]) CheckInvariants() error {
	for i := 1; i < a.q.Len(); i++ {
		if !a.q.less(a.q.At(i-1), a.q.At(i)) {
			return fmt.Errorf("policy: ADF ready queue unsorted at %d", i)
		}
	}
	return nil
}

// insert publishes t on behalf of worker w (-1: pre-run seed). The ready
// mirror is raised before the caller checks for idle workers, so the park
// protocol cannot lose the wake-up.
func (a *ADF[T]) insert(w int, t T) {
	a.mu.lock()
	a.q.Insert(t)
	if a.probe != nil {
		a.probe.Event(w, rtrace.EvQueuePush, a.tidOf(t), 0, 0)
	}
	a.mu.unlock()
	a.ready.Add(1)
}

// adfPop takes the highest-priority ready thread for worker w, counting
// the shared-queue dispatch as a steal and refilling w's quota. A
// provably empty queue is screened out by the lock-free ready mirror, so
// idle workers polling for work never pile onto the queue mutex (a
// publisher raises the mirror only after its insert, so a false negative
// here is indistinguishable from arriving a moment earlier).
func (a *ADF[T]) adfPop(w int) (T, bool) {
	if a.ready.Load() == 0 {
		var zero T
		return zero, false
	}
	a.mu.lock()
	x, ok := a.q.Take()
	if ok && a.probe != nil {
		a.probe.Event(w, rtrace.EvQueueTake, a.tidOf(x), 0, 0)
	}
	a.mu.unlock()
	if !ok {
		return x, false
	}
	a.ready.Add(-1)
	a.steals.Add(1)
	a.quota.Reset(w, a.k)
	return x, true
}
