package policy

import (
	"dfdeques/internal/core"
	"dfdeques/internal/rtrace"
)

// DFD is algorithm DFDeques(K) (§3.3) as a runtime policy: the globally
// ordered deque list R (core.SharedPool) with leftmost-p bottom-steals,
// plus the per-steal memory quota and the dummy-termination give-up rule.
// K = 0 is DFDeques(∞), which is the WS work stealer on nested-parallel
// programs (§3.3): with no quota a worker never gives its deque up, so R
// holds at most one deque per worker.
type DFD[T comparable] struct {
	pool   *core.SharedPool[T]
	quota  *Quota
	k      int64
	lanes  []dfdLane[T] // [w] touched only by worker w
	serial bool         // driven by the simulator (NewSerialDFD)
}

// dfdLane is one worker's give-up state. The trailing line of padding
// keeps any two workers' fields off a common cache line, whatever T's
// size.
type dfdLane[T any] struct {
	// tried is the steal attempt the worker's last give-up made inside its
	// own spine section, until Acquire hands it over.
	tried  attempt[T]
	giveUp bool // set by Dummy, consumed by Terminate
	_      [64]byte
}

// attempt is the outcome of one steal attempt, x valid iff ok; made tells
// the zero value (nothing remembered) from a remembered failure.
type attempt[T any] struct {
	x        T
	ok, made bool
}

// NewDFD builds a DFDeques(K) policy for p workers. less is the 1DF
// priority order (called under the R spine; it must take no lock); seed derives
// each worker's private victim-selection stream (core.WorkerSeed).
func NewDFD[T comparable](p int, k int64, less func(a, b T) bool, seed int64) *DFD[T] {
	return &DFD[T]{
		pool:  core.NewSharedPool(p, less, seed),
		quota: NewQuota(p),
		k:     k,
		lanes: make([]dfdLane[T], p),
	}
}

// NewSerialDFD builds the DFDeques(K) policy the machine simulator drives,
// one event at a time. It differs from NewDFD's in one rule: the §4.1 cost
// model puts the steal that follows a give-up in the next steal round, so
// a give-up here only releases the deque, and the simulator steals through
// BeginRound and StealFrom, which draw the victim from its own rng.
func NewSerialDFD[T comparable](p int, k int64, less func(a, b T) bool) *DFD[T] {
	d := NewDFD(p, k, less, 0)
	d.serial = true
	return d
}

// Instrument attaches a trace probe to the pool (see internal/rtrace).
// Call before the policy is shared.
func (d *DFD[T]) Instrument(p rtrace.Probe, tid func(T) int64) {
	d.pool.Instrument(p, tid)
}

// MeasureLockWait turns on timing of the waits for R's spine lock
// (Stats.LockWaitNs). Call before the policy is shared.
func (d *DFD[T]) MeasureLockWait() { d.pool.MeasureLockWait() }

// Name implements Policy.
func (d *DFD[T]) Name() string { return "DFDeques" }

// Threshold implements Policy.
func (d *DFD[T]) Threshold() int64 { return d.k }

// Seed implements Policy.
func (d *DFD[T]) Seed(t T) { d.pool.Seed(t) }

// Inject implements Policy: the thread gets a new deque at the right end
// of R — O(1), no scan, no priority comparison. A submitted job root is
// minted at the back of the order, so that is its Lemma 3.1 position; a
// canceled job's swept thread only needs a dispatch to die.
func (d *DFD[T]) Inject(t T) { d.pool.Append(t) }

// ForkCont implements Policy: the parent keeps running inline and the
// child — the paper's pushed parent, lower in priority than everything
// forked after it — goes on top of the owned deque. PopBottom therefore
// still takes the deque's lowest-priority, coarsest thread (§3.3). Quota
// is untouched: it spans steals, not forks.
func (d *DFD[T]) ForkCont(w int, parent, child T) { d.pool.PushOwn(w, child) }

// JoinPop implements Policy: claim child for an inline join iff it is
// still the top of w's own deque (see core.SharedPool.PopOwnIf) — i.e. no
// thief stole it and no woken thread was pushed above it.
func (d *DFD[T]) JoinPop(w int, child T) bool { return d.pool.PopOwnIf(w, child) }

// Charge implements Policy.
func (d *DFD[T]) Charge(w int, n int64) bool { return d.quota.Charge(w, n, d.k) }

// Credit implements Policy.
func (d *DFD[T]) Credit(w int, n int64) { d.quota.Credit(w, n, d.k) }

// Preempt implements Policy: the preempted thread goes back on top of w's
// deque, which is then given up — left in R, unowned and stealable — and
// w steals with a fresh quota (§3.3, "memory quota exhausted"). The steal
// is attempted here, inside the give-up's spine section; the next
// Acquire(w) reports how it went.
func (d *DFD[T]) Preempt(w int, t T) {
	d.pool.PushOwn(w, t)
	d.giveUpSteal(w)
}

// giveUpSteal gives w's deque up, attempts the steal that follows in the
// same spine section, and remembers the outcome — possibly a stolen thread,
// w owning its new deque — for the Acquire(w) the engine calls next. The
// serial policy only gives up: its steal belongs to the next round.
func (d *DFD[T]) giveUpSteal(w int) {
	if d.serial {
		d.pool.GiveUp(w)
		return
	}
	x, ok := d.pool.GiveUpSteal(w)
	d.lanes[w].tried = attempt[T]{x, ok, true}
}

// Wake implements Policy.
func (d *DFD[T]) Wake(w int, t T) { d.pool.PushWoken(w, t) }

// Next implements Policy.
func (d *DFD[T]) Next(w int) (T, bool) { return d.pool.PopOwn(w) }

// Terminate implements Policy. After a dummy thread the worker must give
// up its deque and steal (§3.3); a woken parent is pushed first so it
// stays stealable at its priority position, and ok is false even when the
// give-up's own steal attempt succeeded: Acquire hands that over.
// Otherwise the woken parent is handed off directly (its deque is empty
// here for nested-parallel programs — Lemma 3.1), or the deque top runs
// next.
func (d *DFD[T]) Terminate(w int, woke T, hasWoke bool) (T, bool) {
	if ln := &d.lanes[w]; ln.giveUp {
		ln.giveUp = false
		if hasWoke {
			d.pool.PushOwn(w, woke)
		}
		d.giveUpSteal(w)
		var zero T
		return zero, false
	}
	if hasWoke {
		return woke, true
	}
	return d.pool.PopOwn(w)
}

// Dummy implements Policy.
func (d *DFD[T]) Dummy(w int) { d.lanes[w].giveUp = true }

// Acquire implements Policy: one steal attempt (random deque among the
// leftmost p, pop its bottom) — the one w's give-up already made, if it
// has not been reported yet; the quota refills on success.
func (d *DFD[T]) Acquire(w int) (T, bool) {
	ln := &d.lanes[w]
	a := ln.tried
	if a.made {
		ln.tried = attempt[T]{}
	} else {
		a.x, a.ok = d.pool.Steal(w)
	}
	if a.ok {
		d.quota.Reset(w, d.k)
	}
	return a.x, a.ok
}

// BeginRound starts a steal round of the simulator's cost model (see
// core.SharedPool.BeginRound) with memory threshold k: the §7 adaptive
// controller moves K between rounds. A serial-engine entry.
func (d *DFD[T]) BeginRound(k int64) {
	d.k = k
	d.pool.BeginRound()
}

// StealFrom is the simulator's arbitrated steal of the deque c places from
// the left end of R (see core.SharedPool.StealFrom); the quota refills on
// success, as in Acquire. A serial-engine entry.
func (d *DFD[T]) StealFrom(w, c int, fromTop bool) (T, bool) {
	x, ok := d.pool.StealFrom(w, c, fromTop)
	if ok {
		d.quota.Reset(w, d.k)
	}
	return x, ok
}

// Deques returns the current number of deques in R: the victim window of
// the simulator's full-window ablation.
func (d *DFD[T]) Deques() int { return d.pool.Deques() }

// HasWork implements Policy.
func (d *DFD[T]) HasWork() bool { return d.pool.HasWork() }

// Stats implements Policy.
func (d *DFD[T]) Stats() Stats {
	s, f, l := d.pool.Stats()
	return Stats{
		Steals:          s,
		FailedSteals:    f,
		LocalDispatches: l,
		LockOps:         d.pool.ListLockOps(),
		LockWaitNs:      d.pool.ListLockWaitNs(),
		MaxDeques:       d.pool.MaxDeques(),
	}
}

// CheckInvariants verifies the Lemma 3.1 ordering over the pool (tests
// and quiescent moments only); curr gives each worker's running thread.
func (d *DFD[T]) CheckInvariants(curr func(w int) (T, bool)) error {
	return d.pool.CheckInvariants(curr)
}
