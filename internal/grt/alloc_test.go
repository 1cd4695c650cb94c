package grt_test

// Allocation guards for the runtime's hot paths. The T frame pool and the
// deque freelist make the marginal cost of a fork+join link a small
// constant; these tests pin it by differencing two chain lengths so the
// fixed cost of constructing a runtime (workers, deques, conds) cancels
// out.
//
// An unstolen fork+join is an inline call — no goroutine, no channel, no
// frame beyond the pooled T — so the marginal cost is zero allocations.
// So is a give-up on one worker: the preempted frame keeps the resume
// channel of its earlier lives, goes back on a deque, and steals itself
// back into a deque off the freelist; a dummy leaf is a pooled frame with
// a shared body, claimed at its join.

import (
	"sync/atomic"
	"testing"

	"dfdeques/internal/grt"
)

var allocSink atomic.Int64

// chainAllocs counts the allocations of one run of a links-long chain at
// one worker. With k > 0 parent and child each allocate three quarters of
// k, so every link's child is preempted at its join, and the root goes on
// to allocate bigs times 8·k, a tree of eight dummy leaves each.
func chainAllocs(t *testing.T, links, bigs int, k int64, rounds int) float64 {
	t.Helper()
	var x int64
	// One closure shared by every link: the body must not allocate per
	// iteration, or the test measures the closure capture instead of the
	// runtime's own marginal cost.
	n := k * 3 / 4
	body := func(c *grt.T) {
		c.Alloc(n)
		atomic.AddInt64(&x, 1)
		c.Free(n)
	}
	return testing.AllocsPerRun(rounds, func() {
		st, err := grt.Run(grt.Config{
			Workers: 1, Sched: grt.DFDeques, K: k, Seed: 5,
		}, func(r *grt.T) {
			for i := 0; i < links; i++ {
				h := r.Fork(body)
				r.Alloc(n)
				r.Join(h)
				r.Free(n)
			}
			for i := 0; i < bigs; i++ {
				r.Alloc(8 * k)
				r.Free(8 * k)
			}
		})
		if err != nil {
			t.Errorf("run failed: %v", err)
		}
		if k > 0 && (st.Preemptions != int64(links) || st.DummyThreads != int64(8*bigs)) {
			t.Errorf("%d preemptions and %d dummies, want %d and %d", st.Preemptions, st.DummyThreads, links, 8*bigs)
		}
		allocSink.Store(x)
	})
}

func TestForkPathMarginalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const lo, hi, rounds = 16, 144, 10
	// Zero-alloc unstolen fork+join is the work-first tentpole property;
	// the 0.1 headroom only absorbs AllocsPerRun jitter.
	const limit = 0.1
	t.Run("cont", func(t *testing.T) {
		base := chainAllocs(t, lo, 0, 0, rounds)
		long := chainAllocs(t, hi, 0, 0, rounds)
		perLink := (long - base) / float64(hi-lo)
		t.Logf("allocs: %d links = %.0f, %d links = %.0f, marginal = %.2f/link",
			lo, base, hi, long, perLink)
		if perLink > limit {
			t.Errorf("fork+join link costs %.2f allocs, want <= %.1f "+
				"(frame pool or deque freelist regressed)",
				perLink, limit)
		}
	})
}

// TestGiveUpPathMarginalAllocs is the same guard for the thief's side of
// the same code: a link whose child is preempted, and a dummy leaf.
func TestGiveUpPathMarginalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const lo, hi, k, rounds = 16, 144, 128, 10
	const limit = 0.1
	base := chainAllocs(t, lo, lo/8, k, rounds)
	for _, tc := range []struct {
		what        string
		links, bigs int
		per         float64
	}{
		{"preempted link", hi, lo / 8, hi - lo},
		{"dummy leaf", lo, hi / 8, hi - lo},
	} {
		long := chainAllocs(t, tc.links, tc.bigs, k, rounds)
		marginal := (long - base) / tc.per
		t.Logf("allocs: base %.0f, more of %s %.0f, marginal = %.2f", base, tc.what, long, marginal)
		if marginal > limit {
			t.Errorf("a %s costs %.2f allocs, want <= %.1f", tc.what, marginal, limit)
		}
	}
}
