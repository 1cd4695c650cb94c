package sched

import (
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
	k int64
	engine
	adf *policy.ADF[*machine.Thread]
}

// NewADF returns an ADF scheduler with per-thread memory quota k bytes
// (0 = no quota).
func NewADF(k int64) *ADF { return &ADF{k: k} }

// Name implements machine.Scheduler.
func (s *ADF) Name() string { return "ADF" }

// Init implements machine.Scheduler.
func (s *ADF) Init(m *machine.Machine, root *machine.Thread) {
	s.adf = policy.NewADF(m.Procs(), s.k, (*machine.Thread).HigherPriority)
	s.engine = engine{m: m, pol: s.adf, queue: true}
	s.adf.Seed(root)
}

// OnFork implements machine.Scheduler: the parent re-enters the global
// queue at its priority position; the child (which holds the priority
// immediately above its parent) runs next with a fresh quota.
func (s *ADF) OnFork(p int, parent, child *machine.Thread) *machine.Thread {
	s.adf.ForkChildFirst(p, parent)
	s.queueAccess(p)
	return child
}

// CheckInvariants implements machine.Scheduler: the ready queue must be
// priority-sorted.
func (s *ADF) CheckInvariants() error { return s.adf.CheckInvariants() }

// FIFO models the original Solaris Pthreads library scheduler the paper
// compares against (§5): a single global FIFO run queue. A forked child is
// appended to the tail and the parent keeps running, so the computation
// unfolds breadth-first — which is what blows up the number of
// simultaneously live threads (Fig. 11) and destroys locality (Fig. 1).
type FIFO struct{ engine }

// NewFIFO returns a FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements machine.Scheduler.
func (s *FIFO) Name() string { return "FIFO" }

// Init implements machine.Scheduler.
func (s *FIFO) Init(m *machine.Machine, root *machine.Thread) {
	s.engine = engine{m: m, pol: policy.NewFIFO[*machine.Thread](0), queue: true}
	s.pol.Seed(root)
}

// OnFork implements machine.Scheduler: the child is appended to the run
// queue; the parent continues (no child preemption — breadth-first).
func (s *FIFO) OnFork(p int, parent, child *machine.Thread) *machine.Thread {
	s.pol.ForkCont(p, parent, child)
	s.queueAccess(p)
	return parent
}

// OnTerminate implements machine.Scheduler: a woken parent goes to the
// back of the queue like any other runnable thread (one more queue
// access), and the processor takes the queue head.
func (s *FIFO) OnTerminate(p int, t, woke *machine.Thread) *machine.Thread {
	if woke != nil {
		s.queueAccess(p)
	}
	next, ok := s.pol.Terminate(p, woke, woke != nil)
	return s.took(p, next, ok)
}

// CheckInvariants implements machine.Scheduler: nothing to check.
func (s *FIFO) CheckInvariants() error { return nil }
