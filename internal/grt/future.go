package grt

import (
	"errors"

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
	blocker
	set   bool
	value any
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

// getOrWait reports whether the value is already set; if not, t is
// promoted and queued as a reader (blocker.block), as agent of worker w,
// and must suspend. A set future promotes nothing.
func (f *Future) getOrWait(w int, t *T) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.set {
		return true
	}
	f.block(w, t, rtrace.BlockFuture)
	return false
}

// Set writes the future's value and wakes all readers. Calling Set twice
// is an error, reported through the runtime. The write and the wakes run
// inline — they publish the *readers'* frames, never the running one, so
// the thread keeps the processor.
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
		rt.idle.signal()
	}
}

// Get returns the future's value, suspending t until it is set.
func (f *Future) Get(t *T) any {
	if t.job.poisoned.Load() {
		panic(poisonSentinel)
	}
	if w := t.w; !f.getOrWait(w, t) {
		t.suspend(w)
	}
	// Either way f.set now holds, and the set happened-before this read
	// through f.mu (set already) or the wake handoff (suspended).
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
