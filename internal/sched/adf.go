package sched

import (
	"fmt"

	"dfdeques/internal/machine"
	"dfdeques/internal/policy"
)

// ADF is the asynchronous depth-first scheduler of Narlikar & Blelloch
// [34, 35], the paper's "ADF" baseline: all ready threads live in one
// global queue ordered by their 1DF priority; a processor needing work
// takes the highest-priority ready thread. Each thread receives a memory
// quota of K bytes between preemptions (footnote 14); exhausting it sends
// the thread back to the queue at its priority position. Space is bounded
// by S1 + O(K·p·D), but every dispatch goes through the shared queue, so
// the scheduling granularity is a single thread (§2.2, Fig. 3b).
type ADF struct {
	K int64

	m     *machine.Machine
	ready *policy.PrioQueue[*machine.Thread]
	quota *policy.Quota
}

// NewADF returns an ADF scheduler with per-thread memory quota k bytes
// (0 = no quota).
func NewADF(k int64) *ADF { return &ADF{K: k} }

// Name implements machine.Scheduler.
func (s *ADF) Name() string { return "ADF" }

// MemThreshold implements machine.Scheduler.
func (s *ADF) MemThreshold() int64 { return s.K }

// Init implements machine.Scheduler.
func (s *ADF) Init(m *machine.Machine, root *machine.Thread) {
	s.m = m
	s.quota = policy.NewQuota(m.Procs())
	s.ready = policy.NewPrioQueue(func(a, b *machine.Thread) bool {
		return a.HigherPriority(b)
	})
	s.ready.Insert(root)
}

// StealRound implements machine.Scheduler: each idle processor takes the
// highest-priority ready thread. Successive takes within one timestep are
// serialized on the queue lock (QueueLatency each).
func (s *ADF) StealRound(idle []int) {
	for i, p := range idle {
		t, ok := s.ready.Take()
		if !ok {
			return
		}
		s.m.Assign(p, t)
		s.quota.Reset(p, s.K)
		s.m.Stall(p, s.m.Cfg.QueueLatency*int64(i))
	}
}

// OnFork implements machine.Scheduler: the parent re-enters the global
// queue at its priority position; the child (which holds the priority
// immediately above its parent) runs next with a fresh quota.
func (s *ADF) OnFork(p int, parent, child *machine.Thread) *machine.Thread {
	s.ready.Insert(parent)
	s.quota.Reset(p, s.K)
	s.m.Stall(p, s.m.Cfg.QueueLatency)
	return child
}

// OnSuspend implements machine.Scheduler.
func (s *ADF) OnSuspend(p int) *machine.Thread { return s.dispatch(p) }

// OnTerminate implements machine.Scheduler: a woken parent continues on
// the same processor (it is the highest-priority ready thread the
// processor can reach without a queue access).
func (s *ADF) OnTerminate(p int, t, woke *machine.Thread) *machine.Thread {
	if woke != nil {
		s.quota.Reset(p, s.K)
		return woke
	}
	return s.dispatch(p)
}

// OnWake implements machine.Scheduler.
func (s *ADF) OnWake(p int, t *machine.Thread) {
	s.ready.Insert(t)
	s.m.Stall(p, s.m.Cfg.QueueLatency)
}

// ChargeAlloc implements machine.Scheduler.
func (s *ADF) ChargeAlloc(p int, t *machine.Thread, n int64) bool {
	return s.quota.Charge(p, n, s.K)
}

// CreditFree implements machine.Scheduler.
func (s *ADF) CreditFree(p int, t *machine.Thread, n int64) {
	s.quota.Credit(p, n, s.K)
}

// OnPreempt implements machine.Scheduler: the thread returns to the queue
// at its priority position.
func (s *ADF) OnPreempt(p int, t *machine.Thread) {
	s.ready.Insert(t)
	s.m.Stall(p, s.m.Cfg.QueueLatency)
}

// OnDummy implements machine.Scheduler: the dummy consumed the thread's
// quota; the processor's next dispatch resets it anyway, so nothing to do.
func (s *ADF) OnDummy(p int) { s.quota.Reset(p, 0) }

// CheckInvariants implements machine.Scheduler: the ready queue must be
// priority-sorted.
func (s *ADF) CheckInvariants() error {
	for i := 1; i < s.ready.Len(); i++ {
		if !s.ready.At(i - 1).HigherPriority(s.ready.At(i)) {
			return fmt.Errorf("sched: ADF ready queue unsorted at %d", i)
		}
	}
	return nil
}

// dispatch takes the front of the queue after a scheduling event on p.
func (s *ADF) dispatch(p int) *machine.Thread {
	t, ok := s.ready.Take()
	if !ok {
		return nil
	}
	s.m.NoteSteal()
	s.quota.Reset(p, s.K)
	s.m.Stall(p, s.m.Cfg.QueueLatency)
	return t
}
