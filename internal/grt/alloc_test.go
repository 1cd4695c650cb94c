package grt_test

// Allocation guard for the runtime's fork/join hot path. The T frame
// pool, the deque freelist, and the om-record freelist together make
// the marginal cost of a fork+join link a small constant; this test
// pins it by differencing two chain lengths so the fixed cost of
// constructing a runtime (workers, deques, conds) cancels out.
//
// An unstolen fork+join is an inline call — no goroutine, no channel, no
// frame beyond the pooled T — so the marginal cost is zero allocations.

import (
	"sync/atomic"
	"testing"

	"dfdeques/internal/grt"
)

var allocSink atomic.Int64

func chainAllocs(t *testing.T, links, rounds int) float64 {
	t.Helper()
	var x int64
	// One closure shared by every link: the body must not allocate per
	// iteration, or the test measures the closure capture instead of the
	// runtime's own marginal cost.
	body := func(c *grt.T) { atomic.AddInt64(&x, 1) }
	return testing.AllocsPerRun(rounds, func() {
		_, err := grt.Run(grt.Config{
			Workers: 1, Sched: grt.DFDeques, Seed: 5,
		}, func(r *grt.T) {
			for i := 0; i < links; i++ {
				h := r.Fork(body)
				r.Join(h)
			}
		})
		if err != nil {
			t.Errorf("run failed: %v", err)
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
		base := chainAllocs(t, lo, rounds)
		long := chainAllocs(t, hi, rounds)
		perLink := (long - base) / float64(hi-lo)
		t.Logf("allocs: %d links = %.0f, %d links = %.0f, marginal = %.2f/link",
			lo, base, hi, long, perLink)
		if perLink > limit {
			t.Errorf("fork+join link costs %.2f allocs, want <= %.1f "+
				"(frame pool, deque freelist, or om freelist regressed)",
				perLink, limit)
		}
	})
}
