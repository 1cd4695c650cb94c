package grt

import (
	"sync"
	"sync/atomic"
)

// idle is the protocol by which workers park and wake. Its counts are
// atomics, so a publisher checks them without a lock; mu (with cond) is
// taken only to sleep, to signal a sleeper and to decide a park. parked
// counts workers from their count-up to their count-down under mu
// (deciding, waiting on cond, or signaled and not yet running); spinning
// counts workers awake in acquire without a thread. One hunter at a time
// answers for pending work: a publisher signals only when a worker is
// parked and none hunts, and a hunter that takes a thread while work is
// left signals a successor (handOff), so a burst of forks unparks workers
// one by one. Every decision is a pure function of a snapshot, and
// TestIdleProtocolExplorer drives those same functions over every
// interleaving of a three-worker model.
type idle struct {
	mu       sync.Mutex
	cond     sync.Cond
	parked   atomic.Int64
	spinning atomic.Int64
}

// idleView is what a park or a deadlock confirmation decides on, read under
// mu after the deciding worker moved itself from spinning to parked.
type idleView struct {
	parked, spinning int64
	workers          int64
	hadWork          bool // the failed hunt ended with work pending (backoff)
	hasWork          bool // the policy's ready state, re-read after the counts moved
	jobsInFlight     bool
	stopped          bool
}

// parkAction is parkRule's verdict.
type parkAction uint8

const (
	parkWait    parkAction = iota // sleep on cond until signaled, then hunt again
	parkRetry                     // work was published since the hunt failed: hunt again
	parkBackoff                   // the last hunter, with work pending: sleep briefly, hunt again
	parkConfirm                   // every worker idle, nothing ready, a job unfinished
	parkStop                      // the runtime shut down
)

// parkRule decides a park. A worker that gave up on pending work (hadWork)
// may wait only while another worker hunts and so answers for it; a worker
// running a thread does not count, since the thread may never publish
// again (TestReadyWorkNeverWaitsOnABusyWorker). A worker that found nothing
// retries if work was published since (its publisher may have seen it
// spinning and not signaled), and the last one to park with a job in
// flight has a deadlock candidate.
func parkRule(v idleView) parkAction {
	switch {
	case v.stopped:
		return parkStop
	case v.hadWork:
		if v.spinning == 0 {
			return parkBackoff
		}
		return parkWait
	case v.hasWork:
		return parkRetry
	case v.parked == v.workers && v.jobsInFlight:
		return parkConfirm
	}
	return parkWait
}

// signalRule decides whether a publication wakes a parked worker: only if
// one is parked and none hunts.
func signalRule(parked, spinning int64) bool {
	return parked > 0 && spinning == 0
}

// handOffRule decides whether a worker that just took a thread from the
// pool wakes a successor: only if work is left and signalRule agrees. The
// wakes its publishers skipped while it hunted are owed here, and the
// thread it takes may never publish again.
func handOffRule(hasWork bool, parked, spinning int64) bool {
	return hasWork && signalRule(parked, spinning)
}

// deadlockRule confirms a deadlock candidate, read under extMu and mu by
// the worker that found it, which counts as neither parked nor spinning:
// every other worker parked, nothing ready, a job unfinished.
func deadlockRule(v idleView) bool {
	return v.parked == v.workers-1 && !v.hasWork && v.jobsInFlight && !v.stopped
}

// signal is the wake after a publication. The lock-free pre-check keeps the
// publish path free of mu while every worker is busy or one hunts.
func (id *idle) signal() {
	if signalRule(id.parked.Load(), id.spinning.Load()) {
		id.wakeOne()
	}
}

// handOff is the wake a worker owes after taking a thread from the pool.
func (id *idle) handOff(hasWork bool) {
	if handOffRule(hasWork, id.parked.Load(), id.spinning.Load()) {
		id.wakeOne()
	}
}

func (id *idle) wakeOne() {
	id.mu.Lock()
	id.cond.Signal()
	id.mu.Unlock()
}
