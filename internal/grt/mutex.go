package grt

import (
	"errors"

	"dfdeques/internal/rtrace"
)

var errUnlockNotHeld = errors.New("grt: Unlock of a mutex the thread does not hold")

// Mutex is a blocking lock mediated by the thread scheduler, like Pthread
// mutexes in the paper's library (§5): a thread that fails to acquire
// suspends and its processor picks other work; an unlock hands the mutex
// to the longest-waiting thread and re-publishes it to the scheduler.
//
// Programs using Mutex leave the pure nested-parallel model, so the
// paper's space bound no longer applies (§3.1) — but the scheduler still
// executes them correctly, which is what the Fig. 17 experiment exercises.
//
// The holder/waiter state carries its own lock, so the runtime arbitrates
// contended Locks without any global serialization.
//
// The zero value is an unlocked mutex. Lock and Unlock must be called with
// the calling thread's *T.
type Mutex struct {
	blocker
	holder *T
}

// acquire takes m for t, as agent of worker w, reporting success; if m is
// held, t is promoted and queued as a waiter (blocker.block) and must
// suspend. An uncontended acquire promotes nothing and allocates nothing.
func (m *Mutex) acquire(w int, t *T) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.holder == nil {
		m.holder = t
		return true
	}
	m.block(w, t, rtrace.BlockLock)
	return false
}

// release drops t's hold on m and hands the lock to the longest waiter,
// returning that waiter for re-publication to the scheduler (nil if none).
// Removing the waiter from the list under
// m.mu is what arbitrates against the cancel sweep: whichever side
// removes it owns its republication.
func (m *Mutex) release(t *T) (*T, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.holder != t {
		return nil, errUnlockNotHeld
	}
	m.holder = nil
	if len(m.waiters) == 0 {
		return nil, nil
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.holder = next // hand the lock to the woken thread
	next.job.unregisterBlocked(next)
	return next, nil
}

// Lock acquires m, suspending t until it is available. Resumption after a
// suspend implies a releasing thread handed the lock to t.
func (m *Mutex) Lock(t *T) {
	if t.job.poisoned.Load() {
		panic(poisonSentinel)
	}
	if w := t.w; !m.acquire(w, t) {
		t.suspend(w)
	}
}

// Unlock releases m, waking the longest-waiting thread if any. The release
// and wake run inline — they publish the *waiter's* frame, never the
// running one, so the thread keeps the processor.
func (m *Mutex) Unlock(t *T) {
	rt := t.rt
	if t.job.poisoned.Load() {
		panic(poisonSentinel)
	}
	next, err := m.release(t)
	if err != nil {
		t.job.fail(err)
		return
	}
	if next != nil {
		rt.pol.Wake(t.w, next)
		rt.idle.signal()
	}
}
