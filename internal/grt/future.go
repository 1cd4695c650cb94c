package grt

import (
	"errors"
	"sync"

	"dfdeques/internal/rtrace"
)

var errFutureReset = errors.New("grt: Future set twice")

// Future is a write-once synchronization variable mediated by the thread
// scheduler, in the style of Multilisp futures / Id I-structures — the
// synchronization class the depth-first scheduling framework was extended
// to in Blelloch–Gibbons–Matias–Narlikar [4] (§1 of the paper). A thread
// reading an unset Future suspends and frees its processor; the write
// wakes every reader through the scheduler's wake path (for DFDeques, a
// new deque at the reader's priority position in R).
//
// Futures take the computation outside the nested-parallel model, so the
// paper's space bound does not apply; like Mutex, they are executed
// correctly regardless. The value/waiter state carries its own lock so
// the fine-grained runtime needs no global serialization around it.
//
// The zero value is an unset Future. Set must be called at most once.
type Future struct {
	mu      sync.Mutex
	set     bool
	value   any
	waiters []*T
}

// put writes the value and returns the readers to wake. Emptying the waiter list under f.mu is what
// arbitrates against the cancel sweep: whichever side removes a reader
// owns its republication.
func (f *Future) put(v any) ([]*T, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.set {
		return nil, errFutureReset
	}
	f.set = true
	f.value = v
	woken := f.waiters
	f.waiters = nil
	for _, t := range woken {
		t.job.unregisterBlocked(t)
	}
	return woken, nil
}

// getOrWait reports whether the value is already set; if not, t is queued
// as a reader to wake and its worker (w) must pick other work. Called by
// workers, not threads. The block event is recorded under f.mu so it is
// sequenced before the setting worker's wake of t; the reader is also
// registered with its job for the cancel sweep (see Mutex.acquire for the
// poisoning race this resolves).
func (f *Future) getOrWait(w int, t *T) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.set {
		return true
	}
	f.waiters = append(f.waiters, t)
	if !t.job.registerBlocked(t, f) {
		f.waiters = f.waiters[:len(f.waiters)-1]
		return true // poisoned: keep "running"; the next resume kills t
	}
	t.rt.trace(w, rtrace.EvBlock, t.tid, rtrace.BlockFuture, 0)
	return false
}

// cancelWait implements blocker: the job cancel sweep removes t from the
// reader list so it can be republished to die. False means a concurrent
// put already claimed (and is waking) t.
func (f *Future) cancelWait(t *T) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, wt := range f.waiters {
		if wt == t {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Set writes the future's value and wakes all readers. Calling Set twice
// is an error, reported through the runtime. The write and the wakes run
// inline — they publish the *readers'* frames, never the running one, so
// no yield is needed.
func (f *Future) Set(t *T, v any) {
	rt := t.rt
	if t.job.poisoned.Load() {
		panic(poisonSentinel)
	}
	woken, err := f.put(v)
	if err != nil {
		t.job.fail(err)
		return
	}
	for _, wt := range woken {
		rt.pol.Wake(t.w, wt)
	}
	if len(woken) > 0 {
		rt.wakeIdlers()
	}
}

// tryGet reports whether the value is already set — Get's inline fast
// path. Like Mutex.tryAcquire it never queues the
// running frame as a reader; the unset case parks and the pump queues it.
func (f *Future) tryGet() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.set
}

// Get returns the future's value, suspending t until it is set.
func (f *Future) Get(t *T) any {
	if t.job.poisoned.Load() {
		panic(poisonSentinel)
	}
	ok := f.tryGet()
	if !ok {
		// Unset: park; the pump re-checks under f.mu (a concurrent Set
		// may have landed) and queues the frame as a reader.
		t.park(t.w, event{kind: evFutureGet, fut: f})
	}
	// Either way f.set now holds, and the set happened-before this read
	// through f.mu (fast path) or the wake handoff (parked path).
	return f.value
}

// TryGet returns the value without suspending; ok is false if unset.
func (f *Future) TryGet(t *T) (v any, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.set {
		return nil, false
	}
	return f.value, true
}
