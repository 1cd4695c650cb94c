package sched

import (
	"dfdeques/internal/machine"
	"dfdeques/internal/policy"
)

// DFDeques is algorithm DFDeques(K) of §3.3. K is the memory threshold in
// bytes; K = 0 means infinity, which makes the algorithm the WS work
// stealer for nested-parallel programs (§3.3): New builds it for "WS".
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
	// heap exceeds TargetSpace, clamping to [minK, maxK]. The K field is
	// the starting value.
	TargetSpace int64

	engine
	dfd *policy.DFD[*machine.Thread]

	adaptTick int64 // damping counter for the adaptive controller
}

// minK and maxK clamp the adaptive controller's threshold, in bytes.
const (
	minK = 64
	maxK = 16 << 20
)

// NewDFDeques returns a DFDeques scheduler with memory threshold k bytes
// (0 = infinity).
func NewDFDeques(k int64) *DFDeques { return &DFDeques{K: k} }

// MaxDeques returns the largest number of deques simultaneously present in
// R during the run. With K = ∞ it never exceeds the processor count —
// the structural sense in which DFDeques(∞) is the WS work stealer (§3.3).
func (s *DFDeques) MaxDeques() int { return s.dfd.Stats().MaxDeques }

// Name implements machine.Scheduler.
func (s *DFDeques) Name() string {
	if s.K == 0 {
		return "DFD-inf"
	}
	return "DFD"
}

// Init implements machine.Scheduler: the root starts in an unowned deque.
func (s *DFDeques) Init(m *machine.Machine, root *machine.Thread) {
	s.dfd = policy.NewSerialDFD(m.Procs(), s.K, (*machine.Thread).HigherPriority)
	s.engine = engine{m: m, pol: s.dfd}
	s.dfd.Seed(root)
}

// StealRound implements machine.Scheduler: each idle processor makes one
// steal attempt targeting the bottom of a deque chosen uniformly at random
// among the leftmost p deques of R. At most one steal per deque succeeds
// per timestep (§4.1, arbitrated by the pool); the winner's new deque is
// placed immediately to the right of the victim, and the victim is deleted
// if the steal emptied it while unowned.
func (s *DFDeques) StealRound(idle []int) {
	s.adaptK()
	s.dfd.BeginRound(s.K)
	for _, p := range idle {
		window := s.m.Procs()
		if s.FullWindow {
			window = max(window, s.dfd.Deques())
		}
		if t, ok := s.dfd.StealFrom(p, s.m.Rand.Intn(window), s.StealFromTop); ok {
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
	live := s.m.HeapLive()
	switch {
	case live > s.TargetSpace && s.K > minK:
		s.K = max(s.K/2, minK)
	case live < s.TargetSpace/2 && s.K < maxK:
		s.K = min(s.K*2, maxK)
	}
}

// CheckInvariants implements machine.Scheduler: Lemma 3.1 over R (see
// core.SharedPool.CheckInvariants).
func (s *DFDeques) CheckInvariants() error {
	return s.dfd.CheckInvariants(func(w int) (*machine.Thread, bool) {
		t := s.m.Curr(w)
		return t, t != nil
	})
}
