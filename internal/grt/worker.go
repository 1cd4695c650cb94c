package grt

import (
	"errors"
	"runtime"
	"time"

	"dfdeques/internal/rtrace"
)

var errDeadlock = errors.New("grt: deadlock — all workers idle with live threads blocked")

// This file is the runtime's one worker loop — the Figure 5 scheduling
// loop, driving whatever policy.Policy Config selected. The engine owns
// parking, heap accounting, priorities and the join protocol; every
// ready-thread decision is the policy's, and the thread that stops running
// asks for it as agent of its worker: at a give-up (resteal), a block
// (suspend) or its exit (exit). The worker only acquires and resumes.
//
// Each decision takes only the locks the policy internally needs: the R
// spine on a steal or a give-up (one section for a give-up and its steal),
// the queue mutex on a queue take, nothing at all for fork, own-deque pops,
// or alloc/free — deque item operations are lock-free end to end. Those
// locks are leaves (see core.SharedPool; deques carry no lock): the
// priority comparison called under them (prioLess) takes no lock. rt.mu is
// only ever held to park or wake idle workers, never while consulting the
// policy.
//
// Cancellation costs one atomic load at each scheduling point, on the
// thread: a poisoned thread has no further effects — no child is created,
// no lock or future waiter queued (blocker.block), no quota charged — and
// unwinds with the poison sentinel. Threads already in deques or queues drain the same way:
// dispatch, poison check, death — so the ready structures purge themselves
// through ordinary pops and steals, never violating the Lemma 3.1 order.

// worker is one virtual processor: it acquires a thread and resumes it
// until the role comes back empty-handed.
func (rt *Runtime) worker(w int) {
	var curr *T
	for {
		if curr == nil {
			if curr = rt.acquire(w); curr == nil {
				return // runtime shut down
			}
		}
		curr = rt.step(w, curr)
	}
}

// next picks the worker's next thread after its current one suspended or
// blocked; nil sends the worker to acquire.
func (rt *Runtime) next(w int) *T {
	if x, ok := rt.pol.Next(w); ok {
		rt.wakeSuccessor()
		rt.trace(w, rtrace.EvDispatch, x.tid, rtrace.SrcNext, 0)
		return x
	}
	return nil
}

// acquire blocks until it can hand the worker a thread (a steal for the
// deque policies; a queue take otherwise) or the runtime shuts down
// (nil). Work polling is lock-free (the policies' atomic ready counters);
// rt.mu and the cond are only touched to park when there is provably
// nothing to do. In a persistent runtime an empty pool is the normal idle
// state — workers park here between jobs and Submit's wakeIdlers revives
// them.
//
// An acquiring worker counts itself in rt.spinning for the whole hunt.
// Publishers skip the wake-up entirely while a spinner exists (see
// wakeIdlers); in exchange, a spinner that decides to park decrements
// the counter *before* its final has-work re-check, and one that
// succeeds wakes a successor if work remains — so published work always
// has an awake worker responsible for it.
//
// Failed attempts back off exponentially: a brief hot spin (the common
// transient — the victim drained between the size hint and the lock),
// then Gosched, then parking even though work is nominally pending. The
// last step is what stops a persistently unlucky thief from burning a
// core (or, on few cores, stealing cycles from the worker that holds
// the work), and it is safe under one rule: the last acquiring worker
// never parks on pending work; it sleeps briefly and hunts again. Everyone
// else may park with work in the pool, because that one hunting worker
// either takes the work or keeps hunting — and every worker re-derives
// this rule under rt.mu, so two late parkers cannot both slip out. A
// worker that is unparked but running a thread does not count: the
// thread may never publish again. A worker that was woken and parks
// again without having acquired anything counts the wake as futile
// (rt.futileWakes), which is what lets wakeIdlers throttle wake storms
// that find nothing.
func (rt *Runtime) acquire(w int) *T {
	var start time.Time
	if rt.cfg.MeasureContention {
		start = time.Now()
	}
	rt.trace(w, rtrace.EvIdle, 0, 0, 0)
	rt.spinning.Add(1)
	spins := 0
	woken := false
	for {
		if rt.stopped.Load() {
			rt.spinning.Add(-1)
			return nil
		}
		x, ok := rt.pol.Acquire(w)
		if ok {
			rt.spinning.Add(-1)
			if woken {
				// The wake produced work: wakes are useful again.
				rt.futileWakes.Store(0)
			}
			rt.acquired(w, x, start)
			return x
		}
		hadWork := rt.pol.HasWork()
		if hadWork {
			spins++
			if spins < 8 {
				continue
			}
			if spins < 64 {
				runtime.Gosched()
				continue
			}
			// Long unlucky streak: fall through and try to park despite
			// the pending work (refused below if this is the last unparked
			// worker).
		}
		// Park. The idlers counter is raised before the re-check of the
		// ready state, and publishers raise the ready state before
		// checking idlers (both are sequentially consistent atomics), so
		// either we see the fresh work here or the publisher sees us and
		// wakes — a lost wake-up would require both loads to happen
		// before both stores. The spinning decrement precedes the re-check
		// for the same reason: a publisher that skipped the wake because
		// it saw this spinner must have published before the decrement,
		// so the re-check sees its work.
		rt.mu.Lock()
		rt.idleWaiters++
		rt.idlers.Add(1)
		rt.spinning.Add(-1)
		if rt.stopped.Load() {
			rt.idleWaiters--
			rt.idlers.Add(-1)
			rt.mu.Unlock()
			return nil
		}
		if hadWork {
			// Backoff park: allowed only while another worker is still
			// acquiring, and so responsible for the pending work. A worker
			// that is merely unparked may be running a thread that never
			// publishes, and nothing would wake the parked ones.
			if rt.spinning.Load() == 0 {
				rt.idleWaiters--
				rt.idlers.Add(-1)
				rt.spinning.Add(1)
				rt.mu.Unlock()
				time.Sleep(time.Duration(1<<min(spins-64, 9)) * time.Microsecond)
				continue
			}
		} else if rt.pol.HasWork() {
			// Fresh work appeared between the poll and the park: retry.
			rt.idleWaiters--
			rt.idlers.Add(-1)
			rt.spinning.Add(1)
			rt.mu.Unlock()
			continue
		} else if rt.idleWaiters == rt.cfg.Workers && rt.jobsInFlight() {
			// Deadlock candidate: every worker is parked, nothing is
			// published, and a job is unfinished. Confirm before acting.
			rt.idleWaiters--
			rt.idlers.Add(-1)
			rt.mu.Unlock()
			if rt.confirmDeadlock() {
				return nil
			}
			rt.spinning.Add(1)
			continue
		}
		if woken {
			// Woken for nothing: this worker parked, was signaled, hunted,
			// and is parking again empty-handed.
			rt.futileWakes.Add(1)
		}
		rt.cond.Wait()
		woken = true
		rt.idleWaiters--
		rt.idlers.Add(-1)
		rt.spinning.Add(1)
		rt.mu.Unlock()
		spins = 0
	}
}

// acquired is the epilogue of a successful Acquire on worker w, the
// worker's own (acquire) or a frame's (resteal).
func (rt *Runtime) acquired(w int, x *T, start time.Time) {
	rt.wakeSuccessor()
	if !start.IsZero() {
		rt.stealWaitNs.Add(time.Since(start).Nanoseconds())
	}
	rt.trace(w, rtrace.EvDispatch, x.tid, rtrace.SrcAcquire, 0)
}

// resteal is the steal after a give-up (§3.3), made by the thread that gave
// up (§5: the scheduler runs on the thread that gives up the processor). t,
// promoted, has just been published on a deque worker w no longer owns. The
// first attempt is the one the give-up made inside its own spine section —
// Acquire hands it over — so it is taken before asking HasWork, which reads
// false after a steal of the only ready thread. If one of a few attempts
// (acquire's hot-spin phase) takes t back, it just goes on: no channel
// operation, no goroutine switch. Otherwise it returns the worker role with
// what it stole (nil sends the worker to acquire, where backoff, parking and
// deadlock detection stay) and waits for its own dispatch. From the publishing
// store until it took itself back or received on resume another worker may
// step t, so t reads nothing step writes — t.w above all, hence w.
func (t *T) resteal(w int) {
	rt := t.rt
	rt.wakeIdlers(true)
	var start time.Time
	if rt.cfg.MeasureContention {
		start = time.Now()
	}
	var next *T
	for i := 0; i < 8 && next == nil && (i == 0 || rt.pol.HasWork()); i++ {
		if x, ok := rt.pol.Acquire(w); ok {
			next = x
			rt.acquired(w, x, start)
		}
	}
	t.handBack(w, next)
}

// jobsInFlight reports whether any job is registered. A job enters the
// table under extMu before its root is injected and leaves it only after
// its last thread completed, on the worker that ran that thread — so with
// every worker idle, "some job in flight" is "some thread live".
func (rt *Runtime) jobsInFlight() bool {
	rt.jobsMu.Lock()
	defer rt.jobsMu.Unlock()
	return len(rt.jobs) > 0
}

// confirmDeadlock re-checks a deadlock candidate under extMu — Submit
// registers a job and publishes its root atomically under the same
// lock, so a Submit racing the candidate either already published work
// (the re-check sees it: no deadlock) or has not started (its job is not
// in the table). On confirmation every in-flight job is canceled
// with errDeadlock: the poison sweep republishes the lock/future-blocked
// threads, workers retire them, and the jobs drain — the runtime survives
// a deadlocked program (possible only outside the nested-parallel model,
// e.g. lock cycles or a Future nobody sets) with no abandoned goroutines.
// Returns true when this worker should exit (shutdown), false to retry.
func (rt *Runtime) confirmDeadlock() bool {
	rt.extMu.Lock()
	rt.mu.Lock()
	confirmed := rt.idleWaiters == rt.cfg.Workers-1 && !rt.pol.HasWork() &&
		rt.jobsInFlight() && !rt.stopped.Load()
	rt.mu.Unlock()
	rt.extMu.Unlock()
	if !confirmed {
		return rt.stopped.Load()
	}
	rt.jobsMu.Lock()
	jobs := make([]*Job, 0, len(rt.jobs))
	for _, j := range rt.jobs {
		jobs = append(jobs, j)
	}
	rt.jobsMu.Unlock()
	for _, j := range jobs {
		j.cancel(errDeadlock)
	}
	// The sweep republished the blocked threads; go back to the acquire
	// loop and help retire them.
	return false
}

// futileWakeLimit is the number of consecutive futile wakes (a woken
// worker re-parked empty-handed) after which wakeIdlers throttles to one
// wake per wakeEvery publications. Any woken worker that does acquire
// resets the count.
const (
	futileWakeLimit = 3
	wakeEvery       = 64
)

// wakeIdlers wakes one parked worker after new work was published. The
// atomic pre-checks keep the publish path lock-free in the common cases:
// every worker busy (no idlers), or a worker already hunting for work (a
// spinner). A single wake per publication is enough because an acquiring
// worker that succeeds while more work remains wakes a successor itself
// (the handoff in acquire), so a burst of publications unparks workers
// one by one instead of stampeding every sleeper at every fork.
//
// When recent wakes have all been futile — the publisher consumes its
// own work before any thief can reach it, the pattern of a serial
// fork-join chain — all but every wakeEvery-th wake is skipped. The
// skipped wakes cannot strand work: a publisher is by definition awake
// and comes back to the scheduler at its next block, exit or give-up,
// where the dispatch it makes wakes a successor unthrottled if work is
// left (wakeSuccessor); and the last acquiring worker never parks while
// work is pending (see acquire). The periodic forced wake only bounds how
// long the parked majority stays out of the game if the workload turns
// parallel again. throttled is false only for wakeSuccessor.
func (rt *Runtime) wakeIdlers(throttled bool) {
	if rt.idlers.Load() == 0 || rt.spinning.Load() > 0 {
		return
	}
	if throttled && rt.futileWakes.Load() >= futileWakeLimit && rt.wakeSkips.Add(1)%wakeEvery != 0 {
		return
	}
	rt.mu.Lock()
	rt.cond.Signal()
	rt.mu.Unlock()
}

// wakeSuccessor is the hand-off every dispatch from the pool makes: this
// worker is about to run a thread, so if ready work is left, nobody is
// acquiring and a worker is parked, it wakes one. Never throttled: the
// thread it dispatches may publish nothing again (a loop of uncontended
// Lock/Unlock), and then no later publication makes up for a skipped wake.
func (rt *Runtime) wakeSuccessor() {
	if rt.pol.HasWork() {
		rt.wakeIdlers(false)
	}
}

// forceWake bypasses the futile-wake throttle — used where a wake is
// load-bearing rather than advisory: a new job's root (nothing else will
// republish if it is skipped) and the cancel sweep's republications.
func (rt *Runtime) forceWake() {
	rt.futileWakes.Store(0)
	if rt.idlers.Load() == 0 {
		return
	}
	rt.mu.Lock()
	rt.cond.Broadcast()
	rt.mu.Unlock()
}
