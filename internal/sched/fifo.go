package sched

import (
	"dfdeques/internal/machine"
	"dfdeques/internal/policy"
)

// FIFO models the original Solaris Pthreads library scheduler the paper
// compares against (§5): a single global FIFO run queue. A forked child is
// appended to the tail and the parent keeps running, so the computation
// unfolds breadth-first — which is what blows up the number of
// simultaneously live threads (Fig. 11) and destroys locality (Fig. 1).
type FIFO struct {
	m     *machine.Machine
	queue policy.FIFOQueue[*machine.Thread]
}

// NewFIFO returns a FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements machine.Scheduler.
func (s *FIFO) Name() string { return "FIFO" }

// MemThreshold implements machine.Scheduler: no quota.
func (s *FIFO) MemThreshold() int64 { return 0 }

// Init implements machine.Scheduler.
func (s *FIFO) Init(m *machine.Machine, root *machine.Thread) {
	s.m = m
	s.queue.Push(root)
}

// StealRound implements machine.Scheduler: idle processors take from the
// queue head, serialized on the queue lock.
func (s *FIFO) StealRound(idle []int) {
	for i, p := range idle {
		t, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.m.Assign(p, t)
		s.m.Stall(p, s.m.Cfg.QueueLatency*int64(i))
	}
}

// OnFork implements machine.Scheduler: the child is appended to the run
// queue; the parent continues (no child preemption — breadth-first).
func (s *FIFO) OnFork(p int, parent, child *machine.Thread) *machine.Thread {
	s.queue.Push(child)
	s.m.Stall(p, s.m.Cfg.QueueLatency)
	return parent
}

// OnSuspend implements machine.Scheduler.
func (s *FIFO) OnSuspend(p int) *machine.Thread { return s.dispatch(p) }

// OnTerminate implements machine.Scheduler: a woken parent goes to the
// back of the queue like any other runnable thread; the processor takes
// the queue head.
func (s *FIFO) OnTerminate(p int, t, woke *machine.Thread) *machine.Thread {
	if woke != nil {
		s.queue.Push(woke)
		s.m.Stall(p, s.m.Cfg.QueueLatency)
	}
	return s.dispatch(p)
}

// OnWake implements machine.Scheduler.
func (s *FIFO) OnWake(p int, t *machine.Thread) {
	s.queue.Push(t)
	s.m.Stall(p, s.m.Cfg.QueueLatency)
}

// ChargeAlloc implements machine.Scheduler: never vetoes.
func (s *FIFO) ChargeAlloc(p int, t *machine.Thread, n int64) bool { return true }

// CreditFree implements machine.Scheduler.
func (s *FIFO) CreditFree(p int, t *machine.Thread, n int64) {}

// OnPreempt implements machine.Scheduler (unreachable: no quota).
func (s *FIFO) OnPreempt(p int, t *machine.Thread) {
	panic("sched: FIFO cannot preempt")
}

// OnDummy implements machine.Scheduler (unreachable: no quota).
func (s *FIFO) OnDummy(p int) {}

// CheckInvariants implements machine.Scheduler: nothing to check.
func (s *FIFO) CheckInvariants() error { return nil }

func (s *FIFO) dispatch(p int) *machine.Thread {
	t, ok := s.queue.Pop()
	if !ok {
		return nil
	}
	s.m.NoteSteal()
	s.m.Stall(p, s.m.Cfg.QueueLatency)
	return t
}
