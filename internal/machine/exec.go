package machine

import (
	"fmt"

	"dfdeques/internal/dag"
)

// stepProc advances processor p's current thread by one unit of execution.
// All scheduling events (fork, join-suspend, terminate, lock-block,
// quota-preemption) are detected here and routed to the policy, which
// picks the thread the processor runs next.
func (m *Machine) stepProc(p *proc) {
	t := p.curr
	if t.AtEnd() {
		// Should be unreachable: termination is processed eagerly.
		panic(fmt.Sprintf("machine: thread %d scheduled past its end", t.ID))
	}
	in := t.Instr()

	switch in.Op {
	case dag.OpWork:
		if t.workLeft == 0 {
			// Instruction start: touch the data footprint once.
			t.workLeft = in.N
			if misses := p.cache.Touch(int32(in.Blk), int64(in.TouchBytes)); misses > 0 {
				p.stall += misses * m.Cfg.MissPenalty
			}
		}
		if p.stall > 0 {
			// The miss penalty stalls the processor before the work
			// proceeds; this timestep is consumed by the stall.
			p.stall--
			m.met.StallSteps++
			return
		}
		t.workLeft--
		m.met.Actions++
		if t.workLeft == 0 {
			t.PC++
			m.afterAdvance(p, t)
		}

	case dag.OpAlloc:
		if k := m.pol.Threshold(); !in.Exempt && k > 0 && in.N > k {
			// Runtime big-allocation transformation (§3.3): delay the
			// allocation behind ⌈N/K⌉ dummy threads. The rewrite consumes
			// this timestep; the dummy tree's fork executes next.
			m.spliceDummies(t, in.N, k)
			return
		}
		if !in.Exempt && !m.pol.Charge(p.id, in.N) {
			// Memory quota exhausted: preempt without executing the
			// allocation (§3.3 pseudocode, case "memory quota exhausted").
			m.met.Preemptions++
			m.trace(p.id, "preempt", t)
			p.curr = nil
			m.setReady(t)
			m.pol.Preempt(p.id, t, in.N, false)
			m.queueAccess(p.id)
			return
		}
		m.heapLive += in.N
		m.noteSpace()
		m.met.Actions++
		t.PC++
		m.afterAdvance(p, t)

	case dag.OpFree:
		m.heapLive -= in.N
		m.pol.Credit(p.id, in.N)
		m.met.Actions++
		t.PC++
		m.afterAdvance(p, t)

	case dag.OpFork:
		m.trace(p.id, "fork", t)
		if m.Cfg.MemPressureBytes > 0 &&
			m.heapLive+m.Cfg.StackBytes*m.liveThreads > m.Cfg.MemPressureBytes {
			p.stall += m.Cfg.MemPressurePenalty
		}
		child := m.newThread(in.Child, t, in.DummyFork)
		child.depth, child.index = t.depth+1, t.forks
		t.forks++
		t.unjoined = append(t.unjoined, child)
		t.PC++
		m.met.Actions++
		m.setReady(child) // provisional; resolve returns below
		m.setReady(t)
		p.curr = nil
		next := m.fork(p.id, t, child)
		m.resume(p, next)

	case dag.OpJoin:
		child := t.unjoined[len(t.unjoined)-1]
		if child.State == Dead {
			t.unjoined = t.unjoined[:len(t.unjoined)-1]
			m.met.Actions++
			t.PC++
			m.afterAdvance(p, t)
			return
		}
		// Suspend: the join action itself executes after the child dies.
		m.trace(p.id, "suspend", t)
		child.Waiter = t
		m.setSuspended(t)
		p.curr = nil
		next, ok := m.pol.Next(p.id)
		m.resume(p, m.took(p.id, next, ok))

	case dag.OpAcquire:
		l := m.lock(in.Lock)
		if l.holder == nil {
			l.holder = t
			m.met.Actions++
			t.PC++
			m.afterAdvance(p, t)
			return
		}
		if m.Cfg.SpinLocks {
			// Burn one action spinning; retry next timestep.
			m.met.Actions++
			m.met.SpinActions++
			return
		}
		m.trace(p.id, "block", t)
		l.waiters = append(l.waiters, t)
		m.setBlocked(t)
		p.curr = nil
		next, ok := m.pol.Next(p.id)
		m.resume(p, m.took(p.id, next, ok))

	case dag.OpRelease:
		l := m.lock(in.Lock)
		if l.holder != t {
			panic(fmt.Sprintf("machine: thread %d releases lock %d it does not hold", t.ID, in.Lock))
		}
		l.holder = nil
		if len(l.waiters) > 0 {
			w := l.waiters[0]
			l.waiters = l.waiters[1:]
			l.holder = w
			// The waiter resumes *after* its acquire instruction.
			w.PC++
			m.setReady(w)
			m.pol.Wake(p.id, w)
			m.queueAccess(p.id)
		}
		m.met.Actions++
		t.PC++
		m.afterAdvance(p, t)

	case dag.OpDummy:
		m.trace(p.id, "dummy", t)
		m.met.Actions++
		t.PC++
		m.pol.Dummy(p.id)
		m.afterAdvance(p, t)

	default:
		panic(fmt.Sprintf("machine: unknown op %v", in.Op))
	}
}

// afterAdvance handles a thread whose PC just advanced: if it reached the
// end of its program it terminates, possibly waking its suspended parent.
func (m *Machine) afterAdvance(p *proc, t *Thread) {
	if !t.AtEnd() {
		return
	}
	m.setDead(t)
	m.trace(p.id, "terminate", t)
	var woke *Thread
	if w := t.Waiter; w != nil {
		t.Waiter = nil
		// The parent was suspended at its join on t; it is runnable again.
		m.setReady(w)
		woke = w
	}
	p.curr = nil
	m.resume(p, m.terminate(p.id, woke))
}

// resume installs the policy's chosen next thread on processor p, or
// leaves it idle when next is nil.
func (m *Machine) resume(p *proc, next *Thread) {
	if next == nil {
		return
	}
	if next.State != Ready {
		panic(fmt.Sprintf("machine: policy resumed thread %d in state %v", next.ID, next.State))
	}
	p.curr = next
	m.setRunning(next)
	m.trace(p.id, "resume", next)
}

func (m *Machine) lock(id dag.LockID) *lockState {
	l, ok := m.locks[id]
	if !ok {
		l = &lockState{}
		m.locks[id] = l
	}
	return l
}
