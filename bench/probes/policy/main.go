// Command policy times the scheduling events of internal/policy as the
// runtime's workers issue them. It imports no other layer.
package main

import (
	"dfdeques/bench/probes/timing"
	"dfdeques/internal/policy"
)

type item struct{ _ int }

func never(a, b *item) bool { return false }

// acquire loops on the non-blocking Acquire the way an idle worker does.
func acquire(pol policy.Policy[*item], w int) {
	for {
		if _, ok := pol.Acquire(w); ok {
			return
		}
	}
}

func main() {
	timing.Parse()
	p := timing.Procs
	parent, child := &item{}, &item{}

	var dfd policy.Policy[*item] = policy.NewDFD(p, 4096, never, 1)
	dfd.Seed(parent)
	acquire(dfd, 0) // worker 0 now owns a deque and a full quota

	r := timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			dfd.ForkCont(0, parent, child)
			dfd.JoinPop(0, child)
		}
	})
	timing.Emit("policy.dfd_fork_join_ns", "ns", r.Ns, timing.Reps())

	r = timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			dfd.Charge(0, 64)
			dfd.Credit(0, 64)
		}
	})
	timing.Emit("policy.dfd_charge_credit_ns", "ns", r.Ns, timing.Reps())

	// Quota exhausted: the thread goes back on the deque, the deque is
	// given up, and the worker steals with a fresh quota.
	r = timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			dfd.Preempt(0, parent)
			acquire(dfd, 0)
		}
	})
	timing.Emit("policy.dfd_preempt_acquire_ns", "ns", r.Ns, timing.Reps())

	// A job root from outside any worker into an idle pool, up to its
	// first dispatch: Inject, the steal that finds it, and the empty Next
	// that retires the thief's deque when the root is done.
	var idle policy.Policy[*item] = policy.NewDFD(p, 4096, never, 1)
	r = timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			idle.Inject(parent)
			acquire(idle, 0)
			idle.Next(0)
		}
	})
	timing.Emit("policy.inject_ns", "ns", r.Ns, timing.Reps())

	// WS is DFDeques(∞) on the same deque with no quota: a deque change
	// must move this row together with policy.dfd_fork_join_ns.
	var ws policy.Policy[*item] = policy.NewWS[*item](p, 1)
	ws.Seed(parent)
	acquire(ws, 0)
	r = timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			ws.ForkCont(0, parent, child)
			ws.JoinPop(0, child)
		}
	})
	timing.Emit("policy.ws_fork_join_ns", "ns", r.Ns, timing.Reps())
}
