package grt_test

// Cross-engine differential tests: the same declarative workload runs on
// the serial simulator (internal/machine) and on the real
// goroutine runtime (internal/grt). Both engines drive the shared policy
// layer (internal/policy), so everything that is a policy or workload
// invariant — thread and dummy populations, a balanced heap, the serial
// space floor, the dispatch-conservation bound, the structural deque
// limits — must agree across engines even though the schedules themselves
// are unrelated. Every runtime run is also replayed through the trace
// verifier with the Lemma 3.1 ordering checks exact.

import (
	"fmt"
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/grt"
	"dfdeques/internal/machine"
	"dfdeques/internal/rtrace"
)

// crossK is the memory threshold shared by both engines in these tests;
// the parfor leaves allocate more than it so the dummy-thread
// transformation fires on both sides.
const crossK = 600

// crossPolicy runs one scheduler on both engines, each given the same K:
// the simulator under sim, one of machine.Names, and the runtime as kind.
type crossPolicy struct {
	name, sim string
	kind      grt.Kind
	k         int64
}

func crossPolicies() []crossPolicy {
	return []crossPolicy{
		{"DFD", "DFD", grt.DFDeques, crossK},
		{"DFD-inf", "DFD-inf", grt.DFDeques, 0},
		{"WS", "WS", grt.WS, 0},
		{"ADF", "ADF", grt.ADF, crossK},
		{"FIFO", "FIFO", grt.FIFO, 0},
		// FIFO has no threshold in either engine, whatever K says.
		{"FIFO-K", "FIFO", grt.FIFO, crossK},
	}
}

// crossSpecs are lock-free nested-parallel workloads (the model both
// engines implement identically; locks are a §5 extension whose wake
// placement legitimately differs between them).
func crossSpecs() map[string]*dag.ThreadSpec {
	return map[string]*dag.ThreadSpec{
		"parfor": dag.ParFor("loop", 16, func(int) *dag.ThreadSpec {
			return dag.NewThread("leaf").Alloc(900).Work(4).Free(900).Spec()
		}),
		"dnc": dncSpec(4, 2048),
	}
}

func TestCrossEngineInvariants(t *testing.T) {
	for specName, spec := range crossSpecs() {
		// Each engine's serial floor is S1 in its own serial order.
		want, wantRT := dag.Measure(spec), dag.Walk(spec, dag.ParentFirst)
		for _, pol := range crossPolicies() {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/p%d", specName, pol.name, workers), func(t *testing.T) {
					m := machine.New(machine.Config{Procs: workers, Seed: 42, Scheduler: pol.sim, K: pol.k})
					sm, err := m.Run(spec)
					if err != nil {
						t.Fatalf("sim: %v", err)
					}

					// Both engines build the same dummy trees
					// (policy.DummyLeaves / policy.SplitDummies), so the
					// thread populations must match exactly.
					if sm.HeapHW < want.HeapHW {
						t.Errorf("sim heap HW %d below serial floor S1=%d", sm.HeapHW, want.HeapHW)
					}
					// Every counted dispatch starts a thread segment, and a
					// thread has at most 1 + suspensions + preemptions
					// segments; for lock-free specs total suspensions are
					// bounded by the fork count, giving the conservation
					// bound below on any schedule.
					if sm.Steals+sm.LocalDispatches > 2*sm.TotalThreads+sm.Preemptions {
						t.Errorf("sim dispatch conservation violated: steals=%d local=%d threads=%d preempts=%d",
							sm.Steals, sm.LocalDispatches, sm.TotalThreads, sm.Preemptions)
					}
					// DFDeques(∞) ≡ WS: R never outgrows p (§3.3).
					if m.Threshold() == 0 && m.MaxDeques() > workers {
						t.Errorf("sim %s max deques = %d > p = %d", pol.name, m.MaxDeques(), workers)
					}

					rec := rtrace.NewRecorder(workers, 1<<16)
					st, err := grt.RunSpec(grt.Config{
						Workers: workers, Sched: pol.kind, K: pol.k, Seed: 42, Probe: rec,
					}, spec, 1)
					if err != nil {
						t.Fatalf("runtime: %v", err)
					}
					if rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped()); err != nil {
						t.Errorf("replay verification failed: %v", err)
					} else if !rep.OrderingExact {
						t.Errorf("ordering checks degraded on a lock-free spec: %v", rep.Notes)
					}
					if st.TotalThreads != sm.TotalThreads {
						t.Errorf("total threads: runtime=%d sim=%d", st.TotalThreads, sm.TotalThreads)
					}
					if st.DummyThreads != sm.DummyThreads {
						t.Errorf("dummy threads: runtime=%d sim=%d", st.DummyThreads, sm.DummyThreads)
					}
					if st.HeapLive != 0 {
						t.Errorf("runtime heap leaked %d bytes", st.HeapLive)
					}
					if st.HeapHW < wantRT.HeapHW {
						t.Errorf("runtime heap HW %d below serial floor S1=%d", st.HeapHW, wantRT.HeapHW)
					}
					if st.Steals+st.LocalDispatches > 2*st.TotalThreads+st.Preemptions {
						t.Errorf("runtime dispatch conservation violated: steals=%d local=%d threads=%d preempts=%d",
							st.Steals, st.LocalDispatches, st.TotalThreads, st.Preemptions)
					}
					// DFDeques(∞) ≡ WS: R never outgrows p (§3.3).
					if (pol.kind == grt.DFDeques || pol.kind == grt.WS) && pol.k == 0 && st.MaxDeques > int64(workers) {
						t.Errorf("runtime %s max deques = %d > p = %d", pol.name, st.MaxDeques, workers)
					}
				})
			}
		}
	}
}

// TestCrossEngineQuotaPreempts pins the quota machinery across engines: a
// serial chain of over-quota net allocations must preempt on BOTH engines
// under DFDeques(K) — the quota lives in one place (policy.Quota), so if
// either engine stops preempting, the shared implementation broke.
func TestCrossEngineQuotaPreempts(t *testing.T) {
	spec := dag.NewThread("chain").
		Alloc(500).Work(2).
		Alloc(500).Work(2).
		Alloc(500).Work(2).
		Free(1500).Spec()

	m := machine.New(machine.Config{Procs: 2, Seed: 7, Scheduler: "DFD", K: crossK})
	sm, err := m.Run(spec)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sm.Preemptions == 0 {
		t.Error("sim: expected quota preemptions")
	}

	st, err := grt.RunSpec(grt.Config{Workers: 2, Sched: grt.DFDeques, K: crossK, Seed: 7}, spec, 1)
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	if st.Preemptions == 0 {
		t.Error("runtime: expected quota preemptions")
	}
}
