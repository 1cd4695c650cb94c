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
// the queue lock on a queue take, nothing at all for fork, own-deque pops,
// or alloc/free — deque item operations are lock-free end to end. Those
// locks are leaves (see policy.DFD; deques carry no lock): the
// priority comparison called under them (prioLess) takes no lock. The idle
// protocol's mu is only ever held to park or wake idle workers (idle.go),
// never while consulting the policy.
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
// blocked; nil sends the worker to acquire. A pop of its own deque
// publishes nothing, so it owes no wake (TestIdleProtocolExplorer).
func (rt *Runtime) next(w int) *T {
	if x, ok := rt.pol.Next(w); ok {
		rt.trace(w, rtrace.EvDispatch, x.tid, rtrace.SrcNext, 0)
		return x
	}
	return nil
}

// acquire blocks until it can hand the worker a thread (a steal for the
// deque policies; a queue take otherwise) or the runtime shuts down (nil).
// Work polling is lock-free (the policies' atomic ready counters); the
// worker hunts counted in idle.spinning and takes idle.mu only to park. In
// a persistent runtime an empty pool is the normal idle state: workers
// park here between jobs and Submit's signal revives them. Failed attempts
// back off: a brief hot spin (the victim drained between the size hint and
// the lock), then Gosched, then parking even though work is pending, so a
// persistently unlucky thief stops burning a core the worker holding the
// work may need; parkRule says when that is safe.
func (rt *Runtime) acquire(w int) *T {
	var start time.Time
	if rt.cfg.MeasureContention {
		start = time.Now()
	}
	rt.trace(w, rtrace.EvIdle, 0, 0, 0)
	id := &rt.idle
	id.spinning.Add(1)
	spins := 0
	for {
		if rt.stopped.Load() {
			rt.pol.Pause(w)
			id.spinning.Add(-1)
			return nil
		}
		if x, ok := rt.pol.Acquire(w); ok {
			id.spinning.Add(-1)
			rt.acquired(start)
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
		}
		// Park. The counts move before the view re-reads the ready
		// state, and publishers raise the ready state before reading the
		// counts (sequentially consistent atomics): either the view sees
		// the fresh work or the publisher sees this worker parked and not
		// spinning, and signals. A lost wake-up needs both loads before
		// both stores. Whatever the rule decides, the hunt pauses here:
		// the policy writes out the attempts it has only counted.
		rt.pol.Pause(w)
		id.mu.Lock()
		id.parked.Add(1)
		id.spinning.Add(-1)
		act := parkRule(rt.idleView(hadWork))
		if act == parkWait {
			id.cond.Wait()
			spins = 0
		}
		id.parked.Add(-1)
		if act != parkConfirm && act != parkStop {
			id.spinning.Add(1)
		}
		id.mu.Unlock()
		switch act {
		case parkStop:
			return nil
		case parkBackoff:
			time.Sleep(time.Duration(1<<min(spins-64, 9)) * time.Microsecond)
		case parkConfirm:
			if rt.confirmDeadlock() {
				return nil
			}
			id.spinning.Add(1)
		}
	}
}

// idleView snapshots what rt.idle's rules decide on. Called under idle.mu.
func (rt *Runtime) idleView(hadWork bool) idleView {
	return idleView{parked: rt.idle.parked.Load(), spinning: rt.idle.spinning.Load(),
		workers: int64(rt.cfg.Workers), hadWork: hadWork, hasWork: rt.pol.HasWork(),
		jobsInFlight: rt.jobsInFlight(), stopped: rt.stopped.Load()}
}

// acquired is the epilogue of a successful Acquire, the worker's own
// (acquire) or a frame's (resteal, exit). The policy recorded the
// dispatch.
func (rt *Runtime) acquired(start time.Time) {
	rt.idle.handOff(rt.pol.HasWork())
	if !start.IsZero() {
		rt.stealWaitNs.Add(time.Since(start).Nanoseconds())
	}
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
	rt.idle.signal()
	var start time.Time
	if rt.cfg.MeasureContention {
		start = time.Now()
	}
	var next *T
	for i := 0; i < 8 && next == nil && (i == 0 || rt.pol.HasWork()); i++ {
		if x, ok := rt.pol.Acquire(w); ok {
			next = x
			rt.acquired(start)
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
// registers a job and publishes its root atomically under the same lock,
// so a Submit racing the candidate either already published work (the
// re-check sees it: no deadlock) or has not started; the jobs to cancel are
// read under extMu too, so a job submitted after the check is not among
// them. On confirmation every in-flight job is canceled with errDeadlock:
// the poison sweep republishes the lock/future-blocked threads, workers
// retire them, and the jobs drain — the runtime survives a deadlocked
// program (possible only outside the nested-parallel model, e.g. lock
// cycles or a Future nobody sets) with no abandoned goroutines. Returns
// true when this worker should exit (shutdown), false to retry.
func (rt *Runtime) confirmDeadlock() bool {
	rt.extMu.Lock()
	rt.idle.mu.Lock()
	confirmed := deadlockRule(rt.idleView(false))
	rt.idle.mu.Unlock()
	var jobs []*Job
	if confirmed {
		rt.jobsMu.Lock()
		for _, j := range rt.jobs {
			jobs = append(jobs, j)
		}
		rt.jobsMu.Unlock()
	}
	rt.extMu.Unlock()
	if !confirmed {
		return rt.stopped.Load()
	}
	for _, j := range jobs {
		j.cancel(errDeadlock)
	}
	// The sweep republished the blocked threads; go back to the acquire
	// loop and help retire them.
	return false
}
