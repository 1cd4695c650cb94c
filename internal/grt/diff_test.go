package grt_test

// Differential tests of the runtime against references that do not share
// its code: the engine-independent serial walk of the dag (S1, thread
// population), a closed-form result, and the runtime's own repeat
// runs. Everything that is a workload invariant — computed results, thread
// and dummy populations, a balanced heap — must agree exactly across runs
// whose schedules differ; schedule-dependent quantities (steals,
// preemptions, heap high-water) may differ at p > 1, and may not at p = 1.

import (
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/grt"
	"dfdeques/internal/workload"
)

// TestDifferentialSpecInvariants runs declarative workloads — including a
// lock-using one, which the simulator cross-check cannot cover — twice
// under every scheduler with different steal seeds, and compares the
// invariant stats between the runs and against the parent-first serial
// walk, the runtime's own order on one worker.
func TestDifferentialSpecInvariants(t *testing.T) {
	specs := map[string]*dag.ThreadSpec{
		"parfor": dag.ParFor("loop", 24, func(int) *dag.ThreadSpec {
			return dag.NewThread("leaf").Alloc(300).Work(4).Free(300).Spec()
		}),
		"dnc":      dncSpec(4, 2048),
		"treelock": workload.BarnesHutTreeBuild(workload.Medium),
	}
	for name, spec := range specs {
		want := dag.Walk(spec, dag.ParentFirst) // threads, and S1 in the runtime's serial order
		for _, kind := range kinds() {
			var runs [2]grt.Stats
			for i := range runs {
				st, err := grt.RunSpec(grt.Config{Workers: 4, Sched: kind, K: 600, Seed: 42 + int64(i)}, spec, 1)
				if err != nil {
					t.Fatalf("%s/%v run %d: %v", name, kind, i, err)
				}
				// ≥, not ==: the §3.3 dummy tree has non-dummy internal
				// nodes when an allocation exceeds K.
				if st.TotalThreads-st.DummyThreads < want.TotalThreads {
					t.Errorf("%s/%v: real threads = %d, 1DF measure says %d",
						name, kind, st.TotalThreads-st.DummyThreads, want.TotalThreads)
				}
				if st.HeapHW < want.HeapHW {
					t.Errorf("%s/%v: heap HW %d below serial floor S1=%d", name, kind, st.HeapHW, want.HeapHW)
				}
				if st.HeapLive != 0 {
					t.Errorf("%s/%v: heap not balanced: %d", name, kind, st.HeapLive)
				}
				runs[i] = st
			}
			if runs[0].TotalThreads != runs[1].TotalThreads || runs[0].DummyThreads != runs[1].DummyThreads {
				t.Errorf("%s/%v: populations differ between runs: %d/%d threads, %d/%d dummies", name, kind,
					runs[0].TotalThreads, runs[1].TotalThreads, runs[0].DummyThreads, runs[1].DummyThreads)
			}
		}
	}
}

// TestDifferentialComputedResults runs a real computation (not a spec)
// under every scheduler and demands the closed-form answer.
func TestDifferentialComputedResults(t *testing.T) {
	const n = 512
	want := int64((n - 1) * n * (2*n - 1) / 6) // Σ i² for i < n
	var rec func(t *grt.T, lo, hi int64, out *int64)
	rec = func(t *grt.T, lo, hi int64, out *int64) {
		if hi-lo <= 8 {
			var s int64
			for i := lo; i < hi; i++ {
				s += i * i
			}
			*out = s
			return
		}
		mid := (lo + hi) / 2
		var a, b int64
		h := t.Fork(func(c *grt.T) { rec(c, lo, mid, &a) })
		rec(t, mid, hi, &b)
		t.Join(h)
		*out = a + b
	}
	for _, kind := range kinds() {
		var got int64
		if _, err := grt.Run(grt.Config{Workers: 4, Sched: kind, Seed: 7},
			func(r *grt.T) { rec(r, 0, n, &got) }); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: sum = %d, want %d", kind, got, want)
		}
	}
}

// TestDifferentialSingleWorkerDeterminism: with one worker there is no
// scheduling nondeterminism at all, so even the schedule-dependent stats
// must be identical between two runs on the same seed.
func TestDifferentialSingleWorkerDeterminism(t *testing.T) {
	spec := dncSpec(5, 4096)
	for _, kind := range kinds() {
		cfg := grt.Config{Workers: 1, Sched: kind, K: 1000, Seed: 5}
		first, err := grt.RunSpec(cfg, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, err := grt.RunSpec(cfg, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if first.TotalThreads != again.TotalThreads ||
			first.DummyThreads != again.DummyThreads ||
			first.HeapHW != again.HeapHW ||
			first.Preemptions != again.Preemptions {
			t.Errorf("%v: single-worker runs diverge:\nfirst %+v\nagain %+v", kind, first, again)
		}
	}
}
