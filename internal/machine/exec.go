package machine

import (
	"fmt"

	"dfdeques/internal/dag"
	"dfdeques/internal/policy"
	"dfdeques/internal/rtrace"
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
			if in.Blk != 0 && in.TouchBytes > 0 {
				m.record(p.id, rtrace.EvTouch, t.ID, int64(in.Blk), int64(in.TouchBytes))
			}
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
			p.curr = nil
			m.set(t, Ready)
			m.pol.Preempt(p.id, t, in.N, false)
			m.queueAccess(p.id)
			return
		}
		if !in.Exempt {
			m.record(p.id, rtrace.EvAlloc, t.ID, in.N, 0)
		} else if m.Cfg.Record { // only a dummy tree pre-pays: K > 0
			m.record(p.id, rtrace.EvAllocExempt, t.ID, in.N, policy.DummyLeaves(in.N, m.pol.Threshold()))
		}
		m.heapLive += in.N
		m.noteSpace()
		m.met.Actions++
		t.PC++
		m.afterAdvance(p, t)

	case dag.OpFree:
		m.record(p.id, rtrace.EvFree, t.ID, in.N, 0)
		m.heapLive -= in.N
		m.pol.Credit(p.id, in.N)
		m.met.Actions++
		t.PC++
		m.afterAdvance(p, t)

	case dag.OpFork:
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
		m.set(child, Ready)
		if next := m.fork(p.id, t, child); next != t {
			m.set(t, Ready)
			p.curr = nil
			m.resume(p, next, rtrace.SrcNext)
		} // else FIFO: the parent runs on

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
		m.record(p.id, rtrace.EvBlock, t.ID, rtrace.BlockJoin, child.ID)
		child.Waiter = t
		m.set(t, SuspendedJoin)
		p.curr = nil
		next, ok := m.pol.Next(p.id)
		m.resume(p, m.took(p.id, next, ok), rtrace.SrcNext)

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
		m.record(p.id, rtrace.EvBlock, t.ID, rtrace.BlockLock, 0)
		l.waiters = append(l.waiters, t)
		m.set(t, BlockedLock)
		p.curr = nil
		next, ok := m.pol.Next(p.id)
		m.resume(p, m.took(p.id, next, ok), rtrace.SrcNext)

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
			m.set(w, Ready)
			m.pol.Wake(p.id, w)
			m.queueAccess(p.id)
		}
		m.met.Actions++
		t.PC++
		m.afterAdvance(p, t)

	case dag.OpDummy:
		m.record(p.id, rtrace.EvDummy, t.ID, 0, 0)
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
	m.set(t, Dead)
	m.record(p.id, rtrace.EvComplete, t.ID, 0, 0)
	if t.Parent == nil {
		m.record(p.id, rtrace.EvJobEnd, 1, 0, 0)
	}
	var woke *Thread
	if w := t.Waiter; w != nil {
		t.Waiter = nil
		// The parent was suspended at its join on t; it is runnable again.
		m.set(w, Ready)
		woke = w
	}
	p.curr = nil
	m.resume(p, m.terminate(p.id, woke), rtrace.SrcTerminate)
}

// resume installs the policy's chosen next thread on processor p and
// records its dispatch from src, or leaves p idle when next is nil.
func (m *Machine) resume(p *proc, next *Thread, src int64) {
	if next == nil {
		return
	}
	if next.State != Ready {
		panic(fmt.Sprintf("machine: policy resumed thread %d in state %v", next.ID, next.State))
	}
	p.curr = next
	m.set(next, Running)
	m.record(p.id, rtrace.EvDispatch, next.ID, src, 0)
}

func (m *Machine) lock(id dag.LockID) *lockState {
	l, ok := m.locks[id]
	if !ok {
		l = &lockState{}
		m.locks[id] = l
	}
	return l
}
