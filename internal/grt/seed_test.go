package grt_test

import (
	"testing"

	"dfdeques/internal/grt"
	"dfdeques/internal/policy"
)

// seedWorkload is an irregular divide-and-conquer tree: enough fork
// asymmetry that different victim choices produce visibly different
// schedules, while the thread population (total and dummy counts) is a
// pure function of the program + K and must not vary across runs.
func seedWorkload(t *grt.T) {
	var node func(t *grt.T, d int)
	node = func(t *grt.T, d int) {
		if d == 0 {
			t.Alloc(600) // > K below: forces a dummy tree
			t.Free(600)
			return
		}
		l := t.Fork(func(c *grt.T) { node(c, d-1) })
		t.Alloc(64)
		r := t.Fork(func(c *grt.T) { node(c, d-2+1) })
		t.Free(64)
		t.Join(r)
		t.Join(l)
	}
	node(t, 5)
}

// TestSeedDeterminism: two -real runs with the same seed must agree on
// the schedule-independent outcome counters. The per-worker RNG streams
// are derived from (Seed, workerID), so equal seeds mean each worker
// replays the same victim sequence.
func TestSeedDeterminism(t *testing.T) {
	for _, kind := range []grt.Kind{grt.DFDeques, grt.WS} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := grt.Config{Workers: 4, Sched: kind, K: 256, Seed: 42}
			first, err := grt.Run(cfg, seedWorkload)
			if err != nil {
				t.Fatalf("run 1: %v", err)
			}
			second, err := grt.Run(cfg, seedWorkload)
			if err != nil {
				t.Fatalf("run 2: %v", err)
			}
			if first.TotalThreads != second.TotalThreads || first.DummyThreads != second.DummyThreads {
				t.Fatalf("same seed diverged: run1 total=%d dummy=%d, run2 total=%d dummy=%d",
					first.TotalThreads, first.DummyThreads, second.TotalThreads, second.DummyThreads)
			}
			if kind == grt.DFDeques && first.DummyThreads == 0 {
				t.Fatal("workload was meant to fork dummy threads")
			}
		})
	}
}

// TestWorkerSeedStreams pins the per-worker seed derivation: pure,
// seed-sensitive, and distinct across workers (so workers do not march
// through one shared victim sequence in lockstep).
func TestWorkerSeedStreams(t *testing.T) {
	if a, b := policy.WorkerSeed(7, 3), policy.WorkerSeed(7, 3); a != b {
		t.Fatalf("WorkerSeed is not a pure function: %d vs %d", a, b)
	}
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, 7, -5} {
		for w := 0; w < 8; w++ {
			s := policy.WorkerSeed(seed, w)
			if seen[s] {
				t.Fatalf("WorkerSeed(%d, %d) = %d collides with an earlier stream", seed, w, s)
			}
			seen[s] = true
		}
	}
}
