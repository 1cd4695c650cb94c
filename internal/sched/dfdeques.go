// Package sched adapts the scheduling policies of internal/policy to the
// machine simulator — the serial driver of the same policy layer, and the
// same ready pools, the real runtime (internal/grt) drives concurrently:
//
//   - DFDeques(K): the paper's contribution (§3) — globally ordered deques
//     (core.SharedPool, the runtime's pool, driven serially), per-steal
//     memory quota K, steal-from-bottom among the leftmost p.
//   - WS: the provably space-efficient work stealer of Blumofe & Leiserson
//     ("Cilk" in the paper's figures), which DFDeques(∞) degenerates to
//     (policy.WSPool).
//   - ADF(K): the asynchronous depth-first scheduler of Narlikar &
//     Blelloch — a globally ordered ready queue (policy.PrioQueue) with a
//     per-thread quota.
//   - FIFO: the Solaris Pthreads library's original scheduler — one global
//     FIFO run queue (policy.FIFOQueue), forked children enqueued, parents
//     keep running.
//
// The adapters own what is specific to the §4.1 cost model — per-timestep
// steal arbitration, the random-victim draws from the machine's seeded
// rng, queue-latency stalls — and delegate every policy decision to the
// shared structures.
package sched

import (
	"dfdeques/internal/core"
	"dfdeques/internal/machine"
	"dfdeques/internal/policy"
)

// Names lists the report names New accepts.
var Names = []string{"DFD", "DFD-inf", "WS", "ADF", "FIFO"}

// New builds a fresh scheduler by report name (one of Names) with memory
// threshold k where the scheduler takes one; false for an unknown name.
func New(name string, k int64) (machine.Scheduler, bool) {
	switch name {
	case "DFD":
		return NewDFDeques(k), true
	case "DFD-inf":
		return NewDFDeques(0), true
	case "WS":
		return NewWS(), true
	case "ADF":
		return NewADF(k), true
	case "FIFO":
		return NewFIFO(), true
	}
	return nil, false
}

// DFDeques is algorithm DFDeques(K) of §3.3. K is the memory threshold in
// bytes; K = 0 means infinity, which makes the algorithm equivalent to the
// WS work stealer for nested-parallel programs (§3.3).
type DFDeques struct {
	K int64

	// StealFromTop is an ablation switch: thieves pop the victim deque's
	// top (its newest, finest thread) instead of the bottom. The paper
	// argues the bottom thread is "typically the coarsest thread in the
	// queue" (§1) and that stealing it is what buys DFDeques its large
	// scheduling granularity; this switch measures that claim.
	StealFromTop bool

	// FullWindow is an ablation switch: steal victims are sampled from
	// all deques in R instead of the leftmost p. The leftmost-p window is
	// what keeps stolen threads high-priority (close to the 1DF order)
	// and makes the Theorem 4.4 space bound go through; sampling the
	// whole list admits lower-priority (more premature) threads.
	FullWindow bool

	// TargetSpace, when non-zero, enables the adaptive controller the
	// paper sketches as future work (§7: "it may be possible for the
	// system to keep statistics to dynamically set K to an appropriate
	// value during the execution"). The scheduler doubles K while the
	// live heap stays under TargetSpace/2 and halves it when the live
	// heap exceeds TargetSpace, clamping to [MinK, MaxK]. The K field is
	// the starting value.
	TargetSpace int64
	// MinK and MaxK clamp the adaptive controller (defaults 64 bytes and
	// 16 MB).
	MinK, MaxK int64

	m     *machine.Machine
	pool  *core.SharedPool[*machine.Thread] // the globally ordered list R
	quota *policy.Quota
	dummy []bool // processor executed a dummy action; force give-up at termination

	adaptTick int64 // damping counter for the adaptive controller
}

// MaxDeques returns the largest number of deques simultaneously present in
// R during the run. With K = ∞ it never exceeds the processor count —
// the structural sense in which DFDeques(∞) is the WS work stealer (§3.3).
func (s *DFDeques) MaxDeques() int { return s.pool.MaxDeques() }

// NewDFDeques returns a DFDeques scheduler with memory threshold k bytes
// (0 = infinity).
func NewDFDeques(k int64) *DFDeques { return &DFDeques{K: k} }

// Name implements machine.Scheduler.
func (s *DFDeques) Name() string {
	if s.K == 0 {
		return "DFD-inf"
	}
	return "DFD"
}

// MemThreshold implements machine.Scheduler.
func (s *DFDeques) MemThreshold() int64 { return s.K }

// Init implements machine.Scheduler.
func (s *DFDeques) Init(m *machine.Machine, root *machine.Thread) {
	s.m = m
	p := m.Procs()
	s.quota = policy.NewQuota(p)
	s.dummy = make([]bool, p)
	less := func(a, b *machine.Thread) bool { return a.HigherPriority(b) }
	// Victims are drawn from the machine's rng (StealRound); the pool's own
	// per-worker streams, which the seed determines, serve only Steal.
	s.pool = core.NewSharedPool(p, less, 0)
	s.pool.Seed(root)
}

// StealRound implements machine.Scheduler: each idle processor makes one
// steal attempt targeting the bottom of a deque chosen uniformly at random
// among the leftmost p deques of R. At most one steal per deque succeeds
// per timestep (§4.1, arbitrated by the pool); the winner's new deque is
// placed immediately to the right of the victim, and the victim is deleted
// if the steal emptied it while unowned.
func (s *DFDeques) StealRound(idle []int) {
	s.pool.BeginRound()
	s.adaptK()
	for _, p := range idle {
		s.quota.Reset(p, s.K)
		s.dummy[p] = false
		window := s.m.Procs()
		if s.FullWindow && s.pool.Deques() > window {
			window = s.pool.Deques()
		}
		c := s.m.Rand.Intn(window)
		if t, ok := s.pool.StealFrom(p, c, s.StealFromTop); ok {
			s.m.Assign(p, t)
		}
	}
}

// adaptK runs the §7 adaptive-threshold controller. Adjustments are damped
// to one doubling/halving per 64 steal rounds so the threshold tracks the
// live heap instead of slamming between its clamps.
func (s *DFDeques) adaptK() {
	if s.TargetSpace <= 0 || s.K == 0 {
		return
	}
	s.adaptTick++
	if s.adaptTick%64 != 0 {
		return
	}
	minK, maxK := s.MinK, s.MaxK
	if minK <= 0 {
		minK = 64
	}
	if maxK <= 0 {
		maxK = 16 << 20
	}
	live := s.m.HeapLive()
	switch {
	case live > s.TargetSpace && s.K > minK:
		s.K /= 2
		if s.K < minK {
			s.K = minK
		}
	case live < s.TargetSpace/2 && s.K < maxK:
		s.K *= 2
		if s.K > maxK {
			s.K = maxK
		}
	}
}

// OnFork implements machine.Scheduler: the parent is pushed on top of the
// processor's deque and the child preempts it (depth-first order).
func (s *DFDeques) OnFork(p int, parent, child *machine.Thread) *machine.Thread {
	s.pool.PushOwn(p, parent)
	return child
}

// OnSuspend implements machine.Scheduler.
func (s *DFDeques) OnSuspend(p int) *machine.Thread { return s.popOwn(p) }

// OnTerminate implements machine.Scheduler: if the dying thread woke its
// suspended parent, the processor executes the parent next (for
// nested-parallel programs its deque is empty at that point — Lemma 3.1).
// After a dummy action, the processor instead gives up its deque and
// steals (§3.3).
func (s *DFDeques) OnTerminate(p int, t, woke *machine.Thread) *machine.Thread {
	if s.dummy[p] {
		s.dummy[p] = false
		if woke != nil {
			s.pool.PushOwn(p, woke)
		}
		s.pool.GiveUp(p)
		return nil
	}
	if woke != nil {
		return woke
	}
	return s.popOwn(p)
}

// OnWake implements machine.Scheduler: a thread woken by a lock release is
// placed in a new deque inserted at its priority position in R (§5's
// extension for blocking synchronization; outside the nested-parallel
// model), by the runtime's rule: compared only against unowned deques.
func (s *DFDeques) OnWake(p int, t *machine.Thread) {
	s.pool.PushWoken(p, t)
}

// ChargeAlloc implements machine.Scheduler: K bounds the net bytes a
// processor may allocate between consecutive steals.
func (s *DFDeques) ChargeAlloc(p int, t *machine.Thread, n int64) bool {
	return s.quota.Charge(p, n, s.K)
}

// CreditFree implements machine.Scheduler (net allocation: frees restore
// quota up to K).
func (s *DFDeques) CreditFree(p int, t *machine.Thread, n int64) {
	s.quota.Credit(p, n, s.K)
}

// OnPreempt implements machine.Scheduler: the preempted thread is pushed
// back on top of the processor's deque, which is then given up (left in R,
// unowned) — the processor will steal with a fresh quota.
func (s *DFDeques) OnPreempt(p int, t *machine.Thread) {
	s.pool.PushOwn(p, t)
	s.pool.GiveUp(p)
}

// OnDummy implements machine.Scheduler.
func (s *DFDeques) OnDummy(p int) { s.dummy[p] = true }

// popOwn pops the top of the processor's own deque; if the deque is empty
// it is deleted from R and the processor goes idle.
func (s *DFDeques) popOwn(p int) *machine.Thread {
	if t, ok := s.pool.PopOwn(p); ok {
		s.m.NoteLocalDispatch()
		return t
	}
	return nil
}

// CheckInvariants verifies Lemma 3.1:
//  1. threads in each deque are in decreasing priority order from top to
//     bottom;
//  2. a thread executing on a processor has higher priority than all
//     threads in the processor's deque;
//  3. threads in any deque have higher priority than threads in all deques
//     to its right in R.
//
// These hold for nested-parallel programs; programs using locks (OnWake)
// are outside the lemma's scope and must not enable invariant checking.
func (s *DFDeques) CheckInvariants() error {
	return s.pool.CheckInvariants(func(w int) (*machine.Thread, bool) {
		t := s.m.Curr(w)
		return t, t != nil
	})
}
