package sched

import (
	"dfdeques/internal/machine"
	"dfdeques/internal/policy"
)

// WS is the space-efficient work-stealing scheduler of Blumofe & Leiserson
// [9], the paper's "Cilk" reference point: one deque per processor, the
// owner pushes and pops at the top, and an idle processor steals the
// bottom (oldest) thread of a uniformly random victim. It imposes no
// memory quota, so its space grows like p·S1 (Corollary 4.6 shows the
// matching lower bound on our Thm 4.5 dag family).
type WS struct {
	engine
	ws     *policy.WS[*machine.Thread]
	robbed []bool // victims stolen from this round
}

// NewWS returns a work-stealing scheduler.
func NewWS() *WS { return &WS{} }

// Name implements machine.Scheduler.
func (s *WS) Name() string { return "WS" }

// Init implements machine.Scheduler: the root thread starts in processor
// 0's deque (the runtime's Seed puts it in the injectors' inbox, which
// only the runtime's Acquire drains).
func (s *WS) Init(m *machine.Machine, root *machine.Thread) {
	s.ws = policy.NewWS[*machine.Thread](m.Procs(), 0)
	s.engine = engine{m: m, pol: s.ws}
	s.robbed = make([]bool, m.Procs())
	s.ws.Wake(0, root)
}

// StealRound implements machine.Scheduler. An idle processor whose own
// deque is non-empty (possible only through lock wake-ups or the initial
// root placement) pops it locally; otherwise it steals the bottom thread
// of a uniformly random victim, with at most one successful steal per
// victim deque per timestep.
func (s *WS) StealRound(idle []int) {
	clear(s.robbed)
	for _, p := range idle {
		if t, ok := s.ws.Next(p); ok {
			s.m.Assign(p, t)
			continue
		}
		v := s.m.Rand.Intn(s.m.Procs())
		if v == p || s.robbed[v] {
			continue
		}
		if t, ok := s.ws.StealFrom(p, v); ok {
			s.robbed[v] = true
			s.m.Assign(p, t)
		}
	}
}

// CheckInvariants implements machine.Scheduler: each deque must be
// priority-sorted top to bottom (the WS analogue of Lemma 3.1(1–2)).
func (s *WS) CheckInvariants() error { return s.ws.CheckInvariants((*machine.Thread).HigherPriority) }
