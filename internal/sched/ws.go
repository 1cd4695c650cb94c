package sched

import (
	"errors"

	"dfdeques/internal/machine"
	"dfdeques/internal/policy"
)

var errDequeOrder = errors.New("sched: deque not priority-sorted")

// WS is the space-efficient work-stealing scheduler of Blumofe & Leiserson
// [9], the paper's "Cilk" reference point: one deque per processor, the
// owner pushes and pops at the top, and an idle processor steals the
// bottom (oldest) thread of a uniformly random victim. It imposes no
// memory quota, so its space grows like p·S1 (Corollary 4.6 shows the
// matching lower bound on our Thm 4.5 dag family).
type WS struct {
	m    *machine.Machine
	pool *policy.WSPool[*machine.Thread]

	stolenThisRound map[int]bool
}

// NewWS returns a work-stealing scheduler.
func NewWS() *WS { return &WS{} }

// Name implements machine.Scheduler.
func (s *WS) Name() string { return "WS" }

// MemThreshold implements machine.Scheduler: no quota.
func (s *WS) MemThreshold() int64 { return 0 }

// Init implements machine.Scheduler: the root thread starts in processor
// 0's deque.
func (s *WS) Init(m *machine.Machine, root *machine.Thread) {
	s.m = m
	s.pool = policy.NewWSPool[*machine.Thread](m.Procs())
	s.pool.Push(0, root)
	s.stolenThisRound = make(map[int]bool, m.Procs())
}

// StealRound implements machine.Scheduler. An idle processor whose own
// deque is non-empty (possible only through lock wake-ups or the initial
// root placement) pops it locally; otherwise it steals the bottom thread
// of a uniformly random victim, with at most one successful steal per
// victim deque per timestep. (The machine counts steals and failures for
// the simulator's metrics; the pool's own counters are the concurrent
// runtime's and are ignored here.)
func (s *WS) StealRound(idle []int) {
	clear(s.stolenThisRound)
	for _, p := range idle {
		if t, ok := s.pool.Pop(p); ok {
			s.m.Assign(p, t)
			continue
		}
		v := s.m.Rand.Intn(s.m.Procs())
		if v == p || s.stolenThisRound[v] {
			continue
		}
		t, ok := s.pool.StealFrom(p, v)
		if !ok {
			continue
		}
		s.stolenThisRound[v] = true
		s.m.Assign(p, t)
	}
}

// OnFork implements machine.Scheduler: push the parent, run the child.
func (s *WS) OnFork(p int, parent, child *machine.Thread) *machine.Thread {
	s.pool.Push(p, parent)
	return child
}

// OnSuspend implements machine.Scheduler.
func (s *WS) OnSuspend(p int) *machine.Thread { return s.popOwn(p) }

// OnTerminate implements machine.Scheduler: a woken parent is executed
// immediately (footnote 5 of the paper: for nested-parallel programs the
// processor's deque is empty at this point).
func (s *WS) OnTerminate(p int, t, woke *machine.Thread) *machine.Thread {
	if woke != nil {
		return woke
	}
	return s.popOwn(p)
}

// OnWake implements machine.Scheduler: the woken thread is pushed on the
// releasing processor's own deque.
func (s *WS) OnWake(p int, t *machine.Thread) {
	s.pool.Push(p, t)
}

// ChargeAlloc implements machine.Scheduler: never vetoes.
func (s *WS) ChargeAlloc(p int, t *machine.Thread, n int64) bool { return true }

// CreditFree implements machine.Scheduler.
func (s *WS) CreditFree(p int, t *machine.Thread, n int64) {}

// OnPreempt implements machine.Scheduler (unreachable: no quota).
func (s *WS) OnPreempt(p int, t *machine.Thread) {
	panic("sched: WS cannot preempt")
}

// OnDummy implements machine.Scheduler (no-op: WS never sees dummies).
func (s *WS) OnDummy(p int) {}

// CheckInvariants implements machine.Scheduler: each deque must be
// priority-sorted top-to-bottom (the WS analogue of Lemma 3.1(1–2)).
func (s *WS) CheckInvariants() error {
	for i := 0; i < s.pool.Workers(); i++ {
		items := s.pool.At(i).Items()
		for j := 1; j < len(items); j++ {
			if !items[j].HigherPriority(items[j-1]) {
				return errDequeOrder
			}
		}
	}
	return nil
}

func (s *WS) popOwn(p int) *machine.Thread {
	if t, ok := s.pool.Pop(p); ok {
		s.m.NoteLocalDispatch()
		return t
	}
	return nil
}
