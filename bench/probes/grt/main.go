// Command grt times the real runtime through the public facade only: what
// one fork, join, allocation, submission or blocking hand-off costs with
// every layer underneath in place.
package main

import (
	"context"
	"fmt"
	"os"

	"dfdeques"
	"dfdeques/bench/probes/timing"
)

// inJob measures body, which must perform n operations on the job's root
// thread, as one job of a warm runtime built from cfg.
func inJob(cfg dfdeques.RuntimeConfig, body func(t *dfdeques.Thread, n int)) timing.Result {
	rt, err := dfdeques.NewRuntime(cfg)
	check(err)
	defer rt.Shutdown(context.Background())
	return timing.Measure(func(n int) {
		j, err := rt.Submit(context.Background(), func(t *dfdeques.Thread) { body(t, n) })
		check(err)
		_, err = j.Wait()
		check(err)
	})
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe grt:", err)
		os.Exit(1)
	}
}

func main() {
	timing.Parse()
	p := timing.Procs
	dfd := func(workers int, k int64) dfdeques.RuntimeConfig {
		return dfdeques.RuntimeConfig{Workers: workers, Sched: dfdeques.SchedDFDeques, K: k, Seed: 1}
	}
	forkJoin := func(t *dfdeques.Thread, n int) {
		for i := 0; i < n; i++ {
			t.Join(t.Fork(func(*dfdeques.Thread) {}))
		}
	}

	// An unstolen fork+join of an empty child: one worker, so no thief.
	r := inJob(dfd(1, 1<<20), forkJoin)
	timing.Emit("grt.fork_join_ns", "ns", r.Ns, timing.Reps())
	// The same loop with the other workers awake and stealing.
	r = inJob(dfd(p, 1<<20), forkJoin)
	timing.Emit("grt.fork_join_pn_ns", "ns", r.Ns, timing.Reps())

	r = inJob(dfd(1, 4096), func(t *dfdeques.Thread, n int) {
		for i := 0; i < n; i++ {
			t.Alloc(64)
			t.Free(64)
		}
	})
	timing.Emit("grt.alloc_free_ns", "ns", r.Ns, timing.Reps())

	// An allocation of 8·K forks the dummy-thread tree of section 3.3:
	// eight dummy leaves, each making its worker give its deque up.
	const k = 128
	r = inJob(dfd(p, k), func(t *dfdeques.Thread, n int) {
		for i := 0; i < n; i++ {
			t.Alloc(8 * k)
			t.Free(8 * k)
		}
	})
	timing.Emit("grt.big_alloc_ns", "ns", r.Ns, timing.Reps())

	// One empty job through a warm runtime: inject, wake, dispatch, retire.
	rt, err := dfdeques.NewRuntime(dfd(p, 4096))
	check(err)
	r = timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			j, err := rt.Submit(context.Background(), func(*dfdeques.Thread) {})
			check(err)
			_, err = j.Wait()
			check(err)
		}
	})
	check(rt.Shutdown(context.Background()))
	timing.Emit("grt.submit_wait_us", "us", r.Ns/1e3, timing.Reps())

	// One blocking hand-off: the parent reads a future its child has yet
	// to write, so it suspends, the child runs, and the write wakes it.
	r = inJob(dfd(1, 1<<20), func(t *dfdeques.Thread, n int) {
		for i := 0; i < n; i++ {
			var f dfdeques.Future
			h := t.Fork(func(c *dfdeques.Thread) { f.Set(c, i) })
			f.Get(t)
			t.Join(h)
		}
	})
	timing.Emit("grt.block_wake_us", "us", r.Ns/1e3, timing.Reps())
}
