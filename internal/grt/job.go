package grt

import (
	"context"
	"sync"
	"sync/atomic"

	"dfdeques/internal/rtrace"
)

// Job is one root computation submitted to a persistent Runtime: its own
// fork-join tree with its own accounting, failure state, and cancellation
// flag. Many jobs can be in flight on the same warm worker pool; each is
// isolated — a panic or cancellation kills only its own thread tree.
type Job struct {
	rt  *Runtime
	id  int64
	ctx context.Context

	// budget, when non-nil, is the shared memory-accounting group the
	// job's heap traffic also charges (SubmitOpts.Budget); exceeding its
	// limit cancels the job with ErrBudget, and finishJob settles the
	// job's final balance back into it.
	budget *Budget

	// poisoned is the cancellation flag: set once (by context
	// cancellation, deadline, shutdown abort, panic isolation, or
	// deadlock recovery), read by workers with one atomic load at every
	// scheduling event. A poisoned job's threads stop having effects
	// immediately and die — their goroutines unwound by a sentinel panic
	// — at their next resume.
	poisoned atomic.Bool

	// mu guards err, ended and blocked. It is a leaf under every
	// Mutex/Future lock (registration runs as m.mu → j.mu); the cancel
	// sweep never holds it while taking a synchronization object's lock.
	// A job's end and a cancel each record their event under it, so a
	// cancel either precedes the end (and is in the job's outcome) or
	// finds ended set and does nothing.
	mu      sync.Mutex
	err     error
	ended   bool
	blocked map[*T]*blocker // lock/future-blocked threads, for the cancel sweep

	// stopWatch unregisters the context watch (context.AfterFunc) that
	// cancels the job when its submission context fires; nil for a
	// context that never does. Written before the root is published.
	stopWatch func() bool

	// Per-job accounting (the runtime keeps only global counters needed
	// for scheduling itself).
	live, maxLive, tot atomic.Int64
	dummies, preempts  atomic.Int64
	heapLive, heapHW   atomic.Int64

	done chan struct{} // closed when the job's last thread completes
}

// JobStats reports what one job did. Scheduler-wide counters (steals,
// lock operations, deque high-water) live in Stats — they belong to the
// runtime, which many jobs share.
type JobStats struct {
	TotalThreads   int64
	MaxLiveThreads int64
	DummyThreads   int64
	Preemptions    int64 // quota preemptions
	HeapHW         int64 // high-water of Alloc−Free bytes
	HeapLive       int64 // final Alloc−Free balance (0 when frees match)
}

// blocker is the wait queue of a synchronization object a thread can block
// on, embedded in Mutex and Future: mu guards the object's whole state.
type blocker struct {
	mu      sync.Mutex
	waiters []*T
}

// block queues the running thread t as a waiter, as agent of worker w; the
// caller holds b.mu, and suspends t once it lets go. t is promoted first: a
// wake, from the queuing on, dispatches it. The waiter is also registered
// with its job for the cancel sweep — under b.mu, so registration and
// queuing are atomic against the sweep: if the job was poisoned first, the
// registration is refused, the queuing rolled back, and t unwinds instead
// of waiting beyond the sweep's reach. The block event is recorded under
// b.mu so it is sequenced before the waker's dispatch of t.
func (b *blocker) block(w int, t *T, why int64) {
	t.promote(1)
	b.waiters = append(b.waiters, t)
	if !t.job.registerBlocked(t, b) {
		b.waiters = b.waiters[:len(b.waiters)-1]
		panic(poisonSentinel) // b.mu is released by the caller's deferred unlock
	}
	t.rt.trace(w, rtrace.EvBlock, t.tid, why, 0)
}

// cancelWait removes t from the waiter list for the job cancel sweep,
// reporting false if a concurrent wake already claimed it — whoever removes
// the thread from the waiter list owns its republication.
func (b *blocker) cancelWait(t *T) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, wt := range b.waiters {
		if wt == t {
			b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Wait blocks until the job completes or its submission context is
// canceled, and returns the job's stats plus its first error: nil on
// success, the panic/violation error on failure, context.Canceled or
// DeadlineExceeded on cancellation, ErrShutdown on an aborted shutdown.
// When the context fires first, Wait returns its error promptly — the
// job's threads are already poisoned and drain in the background (each
// dies at its next scheduling point); Shutdown waits for that drain.
func (j *Job) Wait() (JobStats, error) {
	select {
	case <-j.done:
	case <-j.ctx.Done():
		// The context watcher poisons the job; don't wait for the drain.
		select {
		case <-j.done:
		default:
			j.cancel(j.ctx.Err())
			return j.Stats(), j.ctx.Err()
		}
	}
	return j.Stats(), j.Err()
}

// Done returns a channel closed when the job's last thread completes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the job's first recorded error (nil while running cleanly).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Stats returns the job's accounting; stable after Done, a live snapshot
// before.
func (j *Job) Stats() JobStats {
	return JobStats{
		TotalThreads:   j.tot.Load(),
		MaxLiveThreads: j.maxLive.Load(),
		DummyThreads:   j.dummies.Load(),
		Preemptions:    j.preempts.Load(),
		HeapHW:         j.heapHW.Load(),
		HeapLive:       j.heapLive.Load(),
	}
}

// fail records the job's first error.
func (j *Job) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// charge adjusts the job's heap accounting, and its budget's when it has
// one; a charge that overruns the budget cancels the job with ErrBudget.
// A budgeted job's free that would take its live heap below zero is
// undone before the budget sees it, and cancels the job with
// ErrUncoveredFree: credit the job does not hold would raise the limit for
// its tenant's other jobs. Lock-free unless it kills (cancel takes extMu);
// callers hold no lock.
func (j *Job) charge(n int64) {
	v := j.heapLive.Add(n)
	if n > 0 {
		atomicMax(&j.heapHW, v)
	} else if v < 0 && j.budget != nil {
		j.heapLive.Add(-n)
		j.cancel(ErrUncoveredFree)
		return
	}
	if j.budget != nil && j.budget.charge(n) {
		j.budget.kill(j)
	}
}

// registerBlocked records t as blocked on b for the cancel sweep. Called
// with b's lock held (the m.mu → j.mu order), right after t joined b's
// waiter list. It refuses (false) if the job was poisoned concurrently —
// the caller must then remove t from the waiter list and unwind it instead
// of suspending it beyond the sweep's reach.
func (j *Job) registerBlocked(t *T, b *blocker) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.poisoned.Load() {
		return false
	}
	if j.blocked == nil {
		j.blocked = make(map[*T]*blocker)
	}
	j.blocked[t] = b
	return true
}

// unregisterBlocked drops t's sweep registration after a normal wake
// (lock hand-off, future write). Also called with the object's lock held.
func (j *Job) unregisterBlocked(t *T) {
	j.mu.Lock()
	delete(j.blocked, t)
	j.mu.Unlock()
}

// Cancel poisons the job with context.Canceled, exactly as if its
// submission context had fired: every thread dies at its next scheduling
// point and Wait returns context.Canceled once the tree drains. It is
// the API-level kill switch (the serving layer's DELETE /v1/jobs/{id});
// idempotent, reporting whether this call was the one that canceled the
// job (false if it already finished or was already poisoned).
func (j *Job) Cancel() bool {
	return j.cancel(context.Canceled)
}

// cancel poisons the job with the given reason and unblocks everything
// that would otherwise keep Wait from returning: threads parked on a
// Mutex or Future are removed from their waiter lists and republished to
// the scheduler so a worker can retire them (they die at dispatch);
// running and queued threads see the flag at their next scheduling event.
// Join-parked threads need no sweep — their children all die, and each
// death wakes its waiter through the normal join protocol. Idempotent;
// reports whether this call was the one that poisoned the job: false
// once the job is poisoned or has ended (a cancel that comes after the end
// records nothing and leaves the job's error alone).
func (j *Job) cancel(reason error) bool {
	// Cancels serialize on extMu (which also makes them lane -1's single
	// writer), and the record is drawn before the flag becomes visible, so
	// everything the poison causes — thread deaths, the job's EvJobEnd —
	// is sequenced after its EvJobCancel.
	rt := j.rt
	rt.extMu.Lock()
	j.mu.Lock()
	if j.ended || j.poisoned.Load() {
		j.mu.Unlock()
		rt.extMu.Unlock()
		return false
	}
	if j.err == nil {
		j.err = reason
	}
	rt.trace(-1, rtrace.EvJobCancel, j.id, 0, 0)
	j.poisoned.Store(true)

	// Snapshot the parked threads under j.mu, then republish outside it:
	// cancelWait takes the synchronization object's lock, which is
	// ordered *before* j.mu.
	swept := make([]*T, 0, len(j.blocked))
	objs := make([]*blocker, 0, len(j.blocked))
	for t, b := range j.blocked {
		swept = append(swept, t)
		objs = append(objs, b)
	}
	j.blocked = nil
	j.mu.Unlock()

	for i, t := range swept {
		if !objs[i].cancelWait(t) {
			// A concurrent wake already removed t from the waiter list
			// and owns its republication.
			continue
		}
		rt.pol.Inject(t)
	}
	rt.extMu.Unlock()
	rt.idle.signal()
	return true
}
