package machine

import (
	"fmt"

	"dfdeques/internal/policy"
)

// Names lists the scheduler names Config.Scheduler accepts.
var Names = []string{"DFD", "DFD-inf", "WS", "ADF", "FIFO"}

// minK and maxK clamp the adaptive controller's threshold, in bytes.
const (
	minK = 64
	maxK = 16 << 20
)

// newPolicy builds the policy Config names, refusing an unknown name and a
// DFDeques variant on a scheduler that has none:
//
//   - DFD: DFDeques(K), the paper's contribution (§3); DFD-inf and WS:
//     DFDeques(∞), on nested-parallel programs the work stealer of
//     Blumofe & Leiserson ("Cilk" in the paper's figures, §3.3);
//   - ADF: the depth-first scheduler of Narlikar & Blelloch, one ready
//     queue in 1DF order with a per-dispatch quota K;
//   - FIFO: the Solaris Pthreads library's original scheduler, one FIFO
//     run queue.
func (m *Machine) newPolicy() error {
	c := &m.Cfg
	less := (*Thread).HigherPriority
	switch c.Scheduler {
	case "DFD", "DFD-inf", "WS":
		k := c.K
		if c.Scheduler != "DFD" {
			k = 0
		}
		if c.AdaptiveTarget != 0 && k == 0 {
			return fmt.Errorf("machine: AdaptiveTarget adapts a finite K; scheduler %q runs with K = ∞", c.Scheduler)
		}
		m.dfd = policy.NewSerialDFD(c.Procs, k, less)
		m.pol = m.dfd
		return nil
	case "ADF":
		m.adf = policy.NewADF(c.Procs, c.K, less)
		m.pol = m.adf
	case "FIFO":
		m.pol = policy.NewFIFO[*Thread]()
	default:
		return fmt.Errorf("machine: unknown scheduler %q", c.Scheduler)
	}
	if c.AdaptiveTarget != 0 || c.StealFromTop || c.FullWindow {
		return fmt.Errorf("machine: AdaptiveTarget, StealFromTop and FullWindow are DFDeques variants; scheduler %q has none", c.Scheduler)
	}
	return nil
}

// Threshold returns the scheduler's memory threshold K in bytes (0 = ∞):
// where the adaptive controller left it once Run has returned.
func (m *Machine) Threshold() int64 { return m.pol.Threshold() }

// MaxDeques returns the largest number of deques R held during the run
// (1 for the queue schedulers). With K = ∞ it never exceeds p — the
// structural sense in which DFDeques(∞) is the WS work stealer (§3.3).
func (m *Machine) MaxDeques() int { return m.pol.Stats().MaxDeques }

// stealRound is the §4.1 steal phase: each idle processor makes one
// attempt. Under DFDeques it targets the bottom (or, with StealFromTop,
// the top) of a deque drawn uniformly from the leftmost p of R (all of R
// with FullWindow); at most one steal per deque succeeds per round, the
// pool arbitrating. Under the queue schedulers the idle processors take
// the queue head in turn, serialized on the queue lock: QueueLatency for
// each processor ahead in line.
func (m *Machine) stealRound(idle []int) {
	if m.dfd == nil {
		for i, p := range idle {
			t, ok := m.pol.Acquire(p)
			if !ok {
				return
			}
			m.assign(p, t)
			m.stall(p, m.Cfg.QueueLatency*int64(i))
		}
		return
	}
	m.dfd.BeginRound(m.adaptK())
	for _, p := range idle {
		window := m.Cfg.Procs
		if m.Cfg.FullWindow {
			window = max(window, m.dfd.Deques())
		}
		if t, ok := m.dfd.StealFrom(p, m.rng.Intn(window), m.Cfg.StealFromTop); ok {
			m.assign(p, t)
		}
	}
}

// adaptK returns the threshold for the next steal round: the §7 adaptive
// controller's, damped to one doubling or halving per 64 rounds so K
// tracks the live heap instead of slamming between its clamps.
func (m *Machine) adaptK() int64 {
	k, target := m.dfd.Threshold(), m.Cfg.AdaptiveTarget
	if target <= 0 || k == 0 {
		return k
	}
	m.adaptTick++
	if m.adaptTick%64 != 0 {
		return k
	}
	switch {
	case m.heapLive > target && k > minK:
		return max(k/2, minK)
	case m.heapLive < target/2 && k < maxK:
		return min(k*2, maxK)
	}
	return k
}

// assign gives thread t to idle processor p in a steal round: a
// successful steal, stalled StealLatency.
func (m *Machine) assign(p int, t *Thread) {
	pr := m.procs[p]
	pr.curr = t
	m.setRunning(t)
	m.trace(p, "steal", t)
	m.met.Steals++
	pr.stall += m.Cfg.StealLatency
}

// stall adds n timesteps of stall to processor p.
func (m *Machine) stall(p int, n int64) {
	if n > 0 {
		m.procs[p].stall += n
	}
}

// queueAccess charges p one access to the global queue of a queue
// scheduler: a QueueLatency stall.
func (m *Machine) queueAccess(p int) {
	if m.dfd == nil {
		m.stall(p, m.Cfg.QueueLatency)
	}
}

// fork publishes one of parent and child on processor p and returns the
// one p runs next. The machine forks child-first, as the paper does;
// the runtime forks parent-first. So DFDeques pushes the parent through
// ForkCont with the roles swapped, ADF queues the parent and refills the
// quota for the child (ForkChildFirst), and FIFO queues the child while
// the parent runs on, breadth-first.
func (m *Machine) fork(p int, parent, child *Thread) *Thread {
	switch {
	case m.dfd != nil:
		m.dfd.ForkCont(p, child, parent)
		return child
	case m.adf != nil:
		m.adf.ForkChildFirst(p, parent)
		m.queueAccess(p)
		return child
	}
	m.pol.ForkCont(p, parent, child)
	m.queueAccess(p)
	return parent
}

// terminate picks p's next thread after its thread terminated, waking
// woke (the parent joined on it) if non-nil. A woken parent handed back
// directly is no take from the ready structure, except under FIFO, where
// it goes to the back of the queue like any runnable thread (one more
// queue access) and p takes the queue head.
func (m *Machine) terminate(p int, woke *Thread) *Thread {
	fifo := m.dfd == nil && m.adf == nil
	if fifo && woke != nil {
		m.queueAccess(p)
	}
	next, ok := m.pol.Terminate(p, woke, woke != nil)
	if ok && next == woke && !fifo {
		return woke
	}
	return m.took(p, next, ok)
}

// took counts the thread t that p took from the ready structure at a
// scheduling event and returns it, or nil when ok is false and p goes
// idle: an own-deque pop under DFDeques, a steal stalled QueueLatency
// under the queue schedulers.
func (m *Machine) took(p int, t *Thread, ok bool) *Thread {
	switch {
	case !ok:
		return nil
	case m.dfd == nil:
		m.met.Steals++
		m.stall(p, m.Cfg.QueueLatency)
	default:
		m.met.LocalDispatches++
	}
	return t
}

// checkInvariants checks the scheduler's invariants: Lemma 3.1 over R
// (policy.DFD.CheckInvariants) for DFDeques, a priority-sorted ready
// queue for ADF, nothing for FIFO.
func (m *Machine) checkInvariants() error {
	switch {
	case m.dfd != nil:
		return m.dfd.CheckInvariants(func(w int) (*Thread, bool) {
			t := m.procs[w].curr
			return t, t != nil
		})
	case m.adf != nil:
		return m.adf.CheckInvariants()
	}
	return nil
}
