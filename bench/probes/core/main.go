// Command core times core.SharedPool, the ready pool under DFDeques, one
// protocol step at a time. It imports no other layer of the repository.
package main

import (
	"time"

	"dfdeques/bench/probes/timing"
	"dfdeques/internal/core"
)

type item struct{ _ int }

// never orders nothing before anything: a woken thread then scans all of
// R and lands at the right end, which is where a new job's root goes.
func never(a, b *item) bool { return false }

func stealUntil(pl *core.SharedPool[*item], w int) {
	for {
		if _, ok := pl.Steal(w); ok {
			return
		}
	}
}

func main() {
	timing.Parse()
	p := timing.Procs
	x := &item{}

	// Worker 0 owns a deque after its first steal; the push and the
	// conditional pop are what an inline fork and join cost the owner.
	pl := core.NewSharedPool(p, never, 1)
	pl.Seed(x)
	stealUntil(pl, 0)
	r := timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			pl.PushOwn(0, x)
			pl.PopOwnIf(0, x)
		}
	})
	timing.Emit("core.push_pop_own_ns", "ns", r.Ns, timing.Reps())

	// The quota-exhaustion cycle: push, give the deque up, steal it back.
	// Steal draws its victim among the leftmost p positions of R, so with
	// one deque in R a share 1-1/p of the attempts fails by design.
	locks := pl.ListLockOps()
	var ops int
	r = timing.Measure(func(n int) {
		locks, ops = pl.ListLockOps(), n
		for i := 0; i < n; i++ {
			pl.PushOwn(0, x)
			pl.GiveUp(0)
			stealUntil(pl, 0)
		}
	})
	timing.Emit("core.steal_cycle_ns", "ns", r.Ns, timing.Reps())
	timing.Emit("core.allocs_per_steal_cycle", "count", r.Allocs, timing.Reps())
	timing.Emit("core.list_lock_ops_per_steal", "count", float64(pl.ListLockOps()-locks)/float64(ops), ops)

	pushWoken(p, x)
}

// pushWoken times PushWoken into an R of p occupied deques. Each call adds
// a deque, so calls are timed four at a time and R is drained back to p
// deques off the clock; the drain recycles every deque through the pool's
// freelist, as the running system does.
func pushWoken(p int, x *item) {
	const batch = 4
	pl := core.NewSharedPool(p, never, 1)
	fill := func() {
		for i := 0; i < p; i++ {
			pl.Seed(x)
		}
	}
	drain := func() {
		for pl.Deques() > 0 {
			stealUntil(pl, 0)
			pl.PopOwn(0) // empty: retires the thief's own deque
		}
	}
	fill()
	r := timing.MeasureTimed(func(n int) time.Duration {
		var el time.Duration
		for i := 0; i < n; i += batch {
			t0 := time.Now()
			for j := 0; j < batch; j++ {
				pl.PushWoken(-1, x)
			}
			el += time.Since(t0)
			drain()
			fill()
		}
		return el
	})
	timing.Emit("core.push_woken_ns", "ns", r.Ns, timing.Reps())
}
