package machine_test

import (
	"strings"
	"testing"

	"dfdeques/internal/cache"
	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
	"dfdeques/internal/workload"
)

// schedulers names every scheduler (DFDeques(∞) once: "WS" is "DFD-inf").
var schedulers = []string{"DFD", "DFD-inf", "ADF", "FIFO"}

func fibSpec(n int) *dag.ThreadSpec {
	if n < 2 {
		return dag.NewThread("fib-leaf").Work(3).Spec()
	}
	l := fibSpec(n - 1)
	r := fibSpec(n - 2)
	return dag.NewThread("fib").Work(1).Fork(l).Fork(r).Join().Join().Work(1).Spec()
}

func allocTree(depth int, bytes int64) *dag.ThreadSpec {
	if depth == 0 {
		return dag.NewThread("leaf").Alloc(bytes).Work(5).Free(bytes).Spec()
	}
	l := allocTree(depth-1, bytes/2+1)
	r := allocTree(depth-1, bytes/2+1)
	return dag.NewThread("node").Alloc(bytes).Fork(l).Fork(r).Join().Join().Free(bytes).Spec()
}

func TestAllSchedulersRunToCompletion(t *testing.T) {
	spec := fibSpec(8)
	want := dag.Measure(spec)
	for _, name := range schedulers {
		m := machine.New(machine.Config{Procs: 4, Seed: 1, Scheduler: name, K: 1 << 20})
		met, err := m.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if met.Actions != want.W {
			t.Errorf("%s: actions = %d, want W = %d", name, met.Actions, want.W)
		}
		if met.TotalThreads != want.TotalThreads {
			t.Errorf("%s: threads = %d, want %d", name, met.TotalThreads, want.TotalThreads)
		}
		if met.Steps < want.W/4 || met.Steps < want.D {
			t.Errorf("%s: T=%d below lower bounds W/p=%d, D=%d", name, met.Steps, want.W/4, want.D)
		}
	}
}

func TestSingleProcessorIsSerialTime(t *testing.T) {
	// On one processor with no latencies, depth-first schedulers execute
	// one action per timestep with no idling except the initial dispatch.
	spec := fibSpec(6)
	want := dag.Measure(spec)
	for _, name := range []string{"DFD", "DFD-inf", "ADF"} {
		m := machine.New(machine.Config{Procs: 1, Seed: 2, Scheduler: name, K: 1 << 20})
		met, err := m.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Allow slack for dispatch timesteps (suspensions cost a step).
		if met.Steps < want.W || met.Steps > 2*want.W {
			t.Errorf("%s: serial steps = %d, want within [W, 2W] = [%d, %d]", name, met.Steps, want.W, 2*want.W)
		}
	}
}

func TestSerialSpaceMatchesS1OnDepthFirstSchedulers(t *testing.T) {
	// On p=1, DFD (at any K, ∞ included) and ADF execute in exact
	// depth-first order, so the heap high-water must equal S1.
	spec := allocTree(5, 1000)
	want := dag.Measure(spec)
	for _, name := range []string{"DFD", "DFD-inf", "ADF"} {
		// A quota too large to preempt.
		m := machine.New(machine.Config{Procs: 1, Seed: 3, Scheduler: name, K: 1 << 30})
		met, err := m.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if met.HeapHW != want.HeapHW {
			t.Errorf("%s: serial heap HW = %d, want S1 = %d", name, met.HeapHW, want.HeapHW)
		}
	}
}

func TestDeterminism(t *testing.T) {
	spec := fibSpec(9)
	for _, name := range schedulers {
		run := func() machine.Metrics {
			m := machine.New(machine.Config{Procs: 8, Seed: 77, Scheduler: name, K: 50000})
			met, err := m.Run(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return met
		}
		a, b := run(), run()
		if a != b {
			t.Errorf("%s: runs with identical seeds diverged:\n%+v\n%+v", name, a, b)
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	spec := fibSpec(10)
	results := map[int64]machine.Metrics{}
	for seed := int64(0); seed < 4; seed++ {
		m := machine.New(machine.Config{Procs: 8, Seed: seed, Scheduler: "DFD", K: 100})
		met, err := m.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		results[seed] = met
	}
	distinct := map[int64]bool{}
	for _, met := range results {
		distinct[met.Steps*1e9+met.Steals] = true
	}
	if len(distinct) < 2 {
		t.Error("different seeds produced identical schedules — steal randomness not wired in?")
	}
}

func TestHeapBalancedAtEnd(t *testing.T) {
	spec := allocTree(4, 500)
	for _, name := range schedulers {
		m := machine.New(machine.Config{Procs: 4, Seed: 5, Scheduler: name, K: 200})
		met, err := m.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if met.HeapHW <= 0 {
			t.Errorf("%s: heap high-water = %d, want > 0", name, met.HeapHW)
		}
	}
}

func TestDummyTransformationRuns(t *testing.T) {
	// One huge allocation: K=100, alloc 1000 → 10 dummy leaves.
	spec := dag.NewThread("big").Alloc(1000).Work(10).Free(1000).Spec()
	m := machine.New(machine.Config{Procs: 2, Seed: 6, Scheduler: "DFD", K: 100})
	met, err := m.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if met.DummyThreads != 10 {
		t.Errorf("dummy threads = %d, want 10", met.DummyThreads)
	}
	if met.HeapHW != 1000 {
		t.Errorf("heap HW = %d, want 1000", met.HeapHW)
	}
	// Each dummy forces its processor to steal afterwards.
	if met.Steals < 10 {
		t.Errorf("steals = %d, want ≥ 10 (one per dummy)", met.Steals)
	}
}

func TestNoDummiesWithoutQuota(t *testing.T) {
	spec := dag.NewThread("big").Alloc(1 << 20).Work(10).Free(1 << 20).Spec()
	for _, name := range []string{"FIFO", "DFD-inf"} {
		m := machine.New(machine.Config{Procs: 2, Seed: 7, Scheduler: name})
		met, err := m.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if met.DummyThreads != 0 {
			t.Errorf("%s: dummy threads = %d, want 0", name, met.DummyThreads)
		}
	}
}

func TestQuotaPreemption(t *testing.T) {
	// Threads that each allocate 60 bytes under K=100: a processor can run
	// at most one such allocation per quota... the second exceeds the
	// remaining 40 and must preempt.
	leaf := func(int) *dag.ThreadSpec {
		return dag.NewThread("leaf").Alloc(60).Work(3).Free(60).Spec()
	}
	// Frees restore quota (net accounting), so interleave allocs without
	// frees within one thread to drain it:
	chain := dag.NewThread("chain").Alloc(60).Alloc(60).Free(60).Free(60).Spec()
	_ = leaf
	m := machine.New(machine.Config{Procs: 1, Seed: 8, Scheduler: "DFD", K: 100})
	met, err := m.Run(chain)
	if err != nil {
		t.Fatal(err)
	}
	if met.Preemptions == 0 {
		t.Error("expected at least one quota preemption")
	}
}

func TestNetQuotaCreditsFrees(t *testing.T) {
	// alloc 60, free 60, alloc 60, free 60 ... never exceeds net 60 < K.
	b := dag.NewThread("net")
	for i := 0; i < 10; i++ {
		b.Alloc(60).Free(60)
	}
	m := machine.New(machine.Config{Procs: 1, Seed: 9, Scheduler: "DFD", K: 100})
	met, err := m.Run(b.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if met.Preemptions != 0 {
		t.Errorf("net-quota run preempted %d times, want 0", met.Preemptions)
	}
}

func TestLocksBlockingMode(t *testing.T) {
	// Two threads increment under a lock; blocking mode suspends one.
	crit := func() *dag.ThreadSpec {
		return dag.NewThread("crit").Acquire(1).Work(20).Release(1).Spec()
	}
	root := dag.Par2("locks", crit(), crit())
	for _, name := range schedulers {
		m := machine.New(machine.Config{Procs: 2, Seed: 10, Scheduler: name, K: 1 << 20})
		met, err := m.Run(root)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if met.SpinActions != 0 {
			t.Errorf("%s: spin actions in blocking mode = %d", name, met.SpinActions)
		}
	}
}

func TestLocksSpinMode(t *testing.T) {
	crit := func() *dag.ThreadSpec {
		return dag.NewThread("crit").Acquire(1).Work(50).Release(1).Spec()
	}
	root := dag.Par2("locks", crit(), crit())
	m := machine.New(machine.Config{Procs: 2, Seed: 11, SpinLocks: true, Scheduler: "DFD-inf"})
	met, err := m.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if met.SpinActions == 0 {
		t.Error("expected spin actions with contended spin locks on 2 procs")
	}
}

func TestCacheModelChargesMisses(t *testing.T) {
	// Two threads touching disjoint blocks larger than the cache.
	leaf := func(i int) *dag.ThreadSpec {
		return dag.NewThread("leaf").WorkOn(100, dag.BlockID(i+1), 4096).Spec()
	}
	root := dag.ParFor("loop", 8, leaf)
	cfg := machine.Config{
		Procs:       2,
		Seed:        12,
		MissPenalty: 10,
		Cache:       cache.Config{CapacityBytes: 8192, LineBytes: 64},
		Scheduler:   "DFD-inf",
	}
	m := machine.New(cfg)
	met, err := m.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if met.CacheMisses == 0 {
		t.Error("expected cache misses")
	}
	if met.StallSteps == 0 {
		t.Error("expected miss-penalty stalls")
	}
	// Compare with a no-cache run: time must be strictly larger with
	// penalties.
	m2 := machine.New(machine.Config{Procs: 2, Seed: 12, Scheduler: "DFD-inf"})
	met2, err := m2.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if met.Steps <= met2.Steps {
		t.Errorf("miss penalties did not slow the run: %d vs %d", met.Steps, met2.Steps)
	}
}

func TestStackBytesCharged(t *testing.T) {
	spec := fibSpec(7)
	m := machine.New(machine.Config{Procs: 4, Seed: 13, StackBytes: 8192, Scheduler: "FIFO"})
	met, err := m.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if met.SpaceHW < met.MaxLiveThreads*8192 {
		t.Errorf("SpaceHW = %d < MaxLive×8k = %d", met.SpaceHW, met.MaxLiveThreads*8192)
	}
}

func TestFIFOIsBreadthFirst(t *testing.T) {
	// FIFO must create far more simultaneously live threads than DFD on a
	// wide, shallow dag (the Fig. 11 effect).
	leaf := func(int) *dag.ThreadSpec { return dag.NewThread("leaf").Work(20).Spec() }
	root := dag.ParFor("wide", 256, leaf)

	run := func(name string, k int64) int64 {
		m := machine.New(machine.Config{Procs: 4, Seed: 14, Scheduler: name, K: k})
		met, err := m.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		return met.MaxLiveThreads
	}
	fifoLive := run("FIFO", 0)
	dfdLive := run("DFD", 50000)
	if fifoLive < 4*dfdLive {
		t.Errorf("FIFO live=%d vs DFD live=%d: expected breadth-first blowup", fifoLive, dfdLive)
	}
}

func TestMissRateAndGranularityHelpers(t *testing.T) {
	met := machine.Metrics{CacheHits: 90, CacheMisses: 10, Actions: 1000, Steals: 10}
	if got := met.MissRate(); got != 10 {
		t.Errorf("MissRate = %v, want 10", got)
	}
	if got := met.SchedGranularity(); got != 100 {
		t.Errorf("SchedGranularity = %v, want 100", got)
	}
	var zero machine.Metrics
	if zero.MissRate() != 0 || zero.SchedGranularity() != 0 {
		t.Error("zero metrics helpers should return 0")
	}
}

func TestStealLatencyDelaysStart(t *testing.T) {
	spec := fibSpec(6)
	base, err := machine.New(machine.Config{Procs: 4, Seed: 15, Scheduler: "DFD", K: 50000}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := machine.New(machine.Config{Procs: 4, Seed: 15, StealLatency: 20, Scheduler: "DFD", K: 50000}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Steps <= base.Steps {
		t.Errorf("steal latency did not increase time: %d vs %d", slow.Steps, base.Steps)
	}
}

func TestQueueLatencyHurtsGlobalQueueSchedulers(t *testing.T) {
	spec := fibSpec(9)
	run := func(ql int64) int64 {
		m := machine.New(machine.Config{Procs: 8, Seed: 16, QueueLatency: ql, Scheduler: "FIFO"})
		met, err := m.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return met.Steps
	}
	fifoSlow := run(8)
	fifoFast := run(0)
	if fifoSlow <= fifoFast {
		t.Errorf("queue latency did not slow FIFO: %d vs %d", fifoSlow, fifoFast)
	}
}

func TestMaxStepsGuard(t *testing.T) {
	spec := fibSpec(12)
	m := machine.New(machine.Config{Procs: 2, Seed: 17, MaxSteps: 10, Scheduler: "DFD-inf"})
	if _, err := m.Run(spec); err == nil {
		t.Fatal("expected MaxSteps error")
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	bad := &dag.ThreadSpec{Instrs: []dag.Instr{{Op: dag.OpJoin}}}
	m := machine.New(machine.Config{Procs: 1, Seed: 18, Scheduler: "DFD-inf"})
	if _, err := m.Run(bad); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestCheckInvariantsRefusesLocks: Lemma 3.1 covers nested-parallel
// programs only, so Run refuses invariant checking on Barnes Hut (the
// benchmark with locks) before step 1, under every scheduler, instead of
// reporting a broken lemma as a scheduler bug partway through.
func TestCheckInvariantsRefusesLocks(t *testing.T) {
	spec := workload.BarnesHut(workload.Fine)
	for _, name := range schedulers {
		met, err := machine.New(machine.Config{Procs: 8, Seed: 1, Scheduler: name, K: 3000, CheckInvariants: true}).Run(spec)
		if err == nil || !strings.Contains(err.Error(), "takes locks") || met.Steps != 0 {
			t.Errorf("%s: Run = %d steps, %v; want a refusal naming the locks before step 1", name, met.Steps, err)
		}
	}
}

// TestRunRefusesUnknownSchedulersAndVariants: Run refuses, before step 1,
// a scheduler name outside machine.Names, each DFDeques variant on ADF and
// on FIFO, and AdaptiveTarget where the threshold is ∞; the variants
// themselves run on DFDeques.
func TestRunRefusesUnknownSchedulersAndVariants(t *testing.T) {
	spec := fibSpec(6)
	refused := []machine.Config{{Scheduler: ""}, {Scheduler: "nope"}, {Scheduler: "dfd"}, {Scheduler: "Cilk"}}
	for _, name := range []string{"ADF", "FIFO"} {
		refused = append(refused,
			machine.Config{Scheduler: name, K: 3000, StealFromTop: true},
			machine.Config{Scheduler: name, K: 3000, FullWindow: true},
			machine.Config{Scheduler: name, K: 3000, AdaptiveTarget: 1 << 16})
	}
	refused = append(refused,
		machine.Config{Scheduler: "DFD-inf", K: 3000, AdaptiveTarget: 1 << 16},
		machine.Config{Scheduler: "WS", K: 3000, AdaptiveTarget: 1 << 16},
		machine.Config{Scheduler: "DFD", AdaptiveTarget: 1 << 16})
	for _, cfg := range refused {
		cfg.Procs = 2
		if met, err := machine.New(cfg).Run(spec); err == nil || met.Steps != 0 {
			t.Errorf("%+v: Run = %d steps, %v; want a refusal before step 1", cfg, met.Steps, err)
		}
	}
	for _, cfg := range []machine.Config{
		{Scheduler: "DFD", K: 3000, StealFromTop: true, FullWindow: true, AdaptiveTarget: 1 << 16},
		{Scheduler: "DFD-inf", StealFromTop: true, FullWindow: true},
		{Scheduler: "WS", StealFromTop: true, FullWindow: true},
	} {
		cfg.Procs = 2
		if _, err := machine.New(cfg).Run(spec); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}
