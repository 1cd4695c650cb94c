package policy

import "fmt"

// ADF is the asynchronous depth-first scheduler of Narlikar & Blelloch as
// a runtime policy: one global queue ordered by 1DF priority, each
// dispatch charged a fresh memory quota of K bytes (footnote 14). Every
// dispatch goes through the shared queue — the scheduling granularity is
// a single thread, which is exactly the contention DFDeques exists to
// avoid; the LockOps counter makes that visible.
type ADF[T any] struct {
	queued[T]
	quota *Quota
	k     int64
}

// NewADF builds an ADF(K) policy for p workers ordered by less.
func NewADF[T any](p int, k int64, less func(a, b T) bool) *ADF[T] {
	a := &ADF[T]{quota: NewQuota(p), k: k}
	a.q = NewQueue(less)
	return a
}

// Name implements Policy.
func (a *ADF[T]) Name() string { return "ADF" }

// Threshold implements Policy.
func (a *ADF[T]) Threshold() int64 { return a.k }

// Seed implements Policy.
func (a *ADF[T]) Seed(t T) { a.insert(-1, t) }

// Inject implements Policy: the priority-positioned insert already serves
// mid-run injection.
func (a *ADF[T]) Inject(t T) { a.insert(-1, t) }

// ForkChildFirst is the simulator's fork, a serial-engine entry: the
// parent enters the queue at its priority position and the child, which
// holds the priority just above it, runs next on w with a fresh quota —
// footnote 14 charges each scheduled thread, and the child is one. The
// runtime forks parent-first (ForkCont), and the parent's dispatch goes on.
func (a *ADF[T]) ForkChildFirst(w int, parent T) {
	a.insert(w, parent)
	a.quota.Reset(w, a.k)
}

// Charge implements Policy.
func (a *ADF[T]) Charge(w int, n int64) bool { return a.quota.Charge(w, n, a.k) }

// Credit implements Policy.
func (a *ADF[T]) Credit(w int, n int64) { a.quota.Credit(w, n, a.k) }

// Wake implements Policy.
func (a *ADF[T]) Wake(w int, t T) { a.insert(w, t) }

// Next implements Policy.
func (a *ADF[T]) Next(w int) (T, bool) { return a.dispatch(w) }

// Terminate implements Policy: a woken parent continues on the same
// worker with a fresh quota (it is the highest-priority ready thread the
// worker can reach without a queue access).
func (a *ADF[T]) Terminate(w int, woke T, hasWoke bool) (T, bool) {
	if hasWoke {
		a.quota.Reset(w, a.k)
		return woke, true
	}
	return a.dispatch(w)
}

// Dummy implements Policy: the dummy consumed the dispatch's quota.
func (a *ADF[T]) Dummy(w int) { a.quota.Reset(w, 0) }

// Acquire implements Policy.
func (a *ADF[T]) Acquire(w int) (T, bool) {
	x, ok := a.dispatch(w)
	return a.acquired(w, x, ok)
}

// CheckInvariants verifies that the ready queue is priority-sorted (serial
// engines and tests only).
func (a *ADF[T]) CheckInvariants() error {
	live := a.q.items[a.q.head:]
	for i := 1; i < len(live); i++ {
		if !a.q.less(live[i-1], live[i]) {
			return fmt.Errorf("policy: ADF ready queue unsorted at %d", i)
		}
	}
	return nil
}

// dispatch takes the highest-priority ready thread for worker w and
// refills w's quota: footnote 14 charges each scheduled thread.
func (a *ADF[T]) dispatch(w int) (T, bool) {
	x, ok := a.take(w)
	if ok {
		a.quota.Reset(w, a.k)
	}
	return x, ok
}
