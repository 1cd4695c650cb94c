// Package sched drives the runtime's scheduling policies (internal/policy)
// on the machine simulator: the serial driver of the same policy values the
// real runtime (internal/grt) drives concurrently.
//
//   - DFDeques(K): the paper's contribution (§3) — globally ordered deques,
//     a per-steal memory quota K, steal-from-bottom among the leftmost p
//     (policy.DFD, built by policy.NewSerialDFD). "DFD-inf" and "WS" both
//     name DFDeques(∞): on nested-parallel programs it is the provably
//     space-efficient work stealer of Blumofe & Leiserson ("Cilk" in the
//     paper's figures, §3.3).
//   - ADF(K): the asynchronous depth-first scheduler of Narlikar &
//     Blelloch — a globally ordered ready queue with a per-thread quota
//     (policy.ADF).
//   - FIFO: the Solaris Pthreads library's original scheduler — one global
//     FIFO run queue, forked children enqueued, parents keep running
//     (policy.FIFO).
//
// One adapter, engine, turns the machine's event hooks into policy calls;
// every ready-thread decision — the quota, the dummy give-up, preempt as
// push-then-give-up, the woken-parent hand-off, the own-deque pop — is the
// policy's. A scheduler type here keeps only what belongs to the §4.1 cost
// model: its StealRound (the per-timestep steal arbitration), the victim
// draws from the machine's seeded rng, the queue-latency stalls and the
// machine's counters — plus, for DFDeques, the two ablation switches and
// the §7 adaptive-K controller.
package sched

import (
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
	case "DFD-inf", "WS":
		return NewDFDeques(0), true
	case "ADF":
		return NewADF(k), true
	case "FIFO":
		return NewFIFO(), true
	}
	return nil, false
}

// engine adapts a policy to machine.Scheduler's event hooks. The machine
// forks child-first: the parent is the thread published, the child runs.
// For a deque policy a thread taken from the ready structure inside a hook
// is an own-deque pop; for a global-queue policy (queue) it is a steal,
// and every queue access stalls the processor QueueLatency.
type engine struct {
	m     *machine.Machine
	pol   policy.Policy[*machine.Thread]
	queue bool
}

// MemThreshold implements machine.Scheduler.
func (e *engine) MemThreshold() int64 { return e.pol.Threshold() }

// StealRound implements machine.Scheduler for the global-queue policies:
// idle processors take the queue head in turn, serialized on the queue
// lock (QueueLatency for each processor ahead in line). The deque
// schedulers arbitrate their own steals.
func (e *engine) StealRound(idle []int) {
	for i, p := range idle {
		t, ok := e.pol.Acquire(p)
		if !ok {
			return
		}
		e.m.Assign(p, t)
		e.m.Stall(p, e.m.Cfg.QueueLatency*int64(i))
	}
}

// OnFork implements machine.Scheduler: the parent is published and the
// child runs next — the policy's ForkCont with the roles swapped, since
// the runtime forks parent-first.
func (e *engine) OnFork(p int, parent, child *machine.Thread) *machine.Thread {
	e.pol.ForkCont(p, child, parent)
	return child
}

// OnSuspend implements machine.Scheduler.
func (e *engine) OnSuspend(p int) *machine.Thread {
	t, ok := e.pol.Next(p)
	return e.took(p, t, ok)
}

// OnTerminate implements machine.Scheduler. A woken parent handed back
// directly is no take from the ready structure.
func (e *engine) OnTerminate(p int, t, woke *machine.Thread) *machine.Thread {
	next, ok := e.pol.Terminate(p, woke, woke != nil)
	if ok && next == woke {
		return woke
	}
	return e.took(p, next, ok)
}

// took counts the thread t that p took from the policy's ready structure
// inside an event hook; ok = false leaves p idle.
func (e *engine) took(p int, t *machine.Thread, ok bool) *machine.Thread {
	switch {
	case !ok:
		return nil
	case e.queue:
		e.m.NoteSteal()
		e.m.Stall(p, e.m.Cfg.QueueLatency)
	default:
		e.m.NoteLocalDispatch()
	}
	return t
}

// queueAccess charges p one access to the global queue of a queue policy:
// a QueueLatency stall.
func (e *engine) queueAccess(p int) {
	if e.queue {
		e.m.Stall(p, e.m.Cfg.QueueLatency)
	}
}

// OnWake implements machine.Scheduler.
func (e *engine) OnWake(p int, t *machine.Thread) {
	e.pol.Wake(p, t)
	e.queueAccess(p)
}

// ChargeAlloc implements machine.Scheduler.
func (e *engine) ChargeAlloc(p int, t *machine.Thread, n int64) bool {
	return e.pol.Charge(p, n)
}

// CreditFree implements machine.Scheduler.
func (e *engine) CreditFree(p int, t *machine.Thread, n int64) { e.pol.Credit(p, n) }

// OnPreempt implements machine.Scheduler.
func (e *engine) OnPreempt(p int, t *machine.Thread) {
	e.pol.Preempt(p, t)
	e.queueAccess(p)
}

// OnDummy implements machine.Scheduler.
func (e *engine) OnDummy(p int) { e.pol.Dummy(p) }
