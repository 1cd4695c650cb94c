package grt_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/grt"
	"dfdeques/internal/machine"
	"dfdeques/internal/workload"
)

// TestRunSpecMatchesSerialMetrics: the real runtime must create exactly
// the thread population the serial walk predicts, and its heap high-water
// must lie between S1 of its own serial order, parent-first (the serial
// floor), and total allocation.
func TestRunSpecMatchesSerialMetrics(t *testing.T) {
	specs := map[string]*dag.ThreadSpec{
		"parfor": dag.ParFor("loop", 32, func(int) *dag.ThreadSpec {
			return dag.NewThread("leaf").Alloc(256).Work(5).Free(256).Spec()
		}),
		"dnc": dncSpec(5, 1024),
	}
	for name, spec := range specs {
		want := dag.Walk(spec, dag.ParentFirst)
		for _, kind := range []grt.Kind{grt.DFDeques, grt.ADF, grt.FIFO} {
			st, err := grt.RunSpec(grt.Config{Workers: 4, Sched: kind, Seed: 1}, spec, 2)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, kind, err)
			}
			if st.TotalThreads != want.TotalThreads {
				t.Errorf("%s/%v: threads = %d, want %d", name, kind, st.TotalThreads, want.TotalThreads)
			}
			if st.HeapHW < want.HeapHW {
				t.Errorf("%s/%v: heap HW %d below serial floor %d", name, kind, st.HeapHW, want.HeapHW)
			}
			if st.HeapHW > want.TotalAlloc {
				t.Errorf("%s/%v: heap HW %d above total allocation %d", name, kind, st.HeapHW, want.TotalAlloc)
			}
		}
	}
}

// TestParentFirstWalkIsTheOneWorkerRun: on one worker with no quota
// nothing is stolen or preempted, so the runtime runs a program exactly in
// dag.ParentFirst order — every forked child when its parent's join
// reaches it — and its heap high-water, live-thread peak and thread count
// must equal the walk's.
func TestParentFirstWalkIsTheOneWorkerRun(t *testing.T) {
	specs := map[string]*dag.ThreadSpec{}
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 500; i++ {
		specs[fmt.Sprintf("random%d", i)], _ = randomProgram(rng, 0)
	}
	for _, w := range workload.All() {
		for _, g := range []workload.Grain{workload.Medium, workload.Fine} {
			specs[w.Name+"/"+g.String()] = w.Build(g)
		}
	}
	// The job service's tree jobs, at the benchmark's three shapes.
	for _, tr := range []struct{ depth, alloc, work int64 }{{4, 128, 16}, {8, 512, 32}, {11, 2048, 64}} {
		spec := dag.NewThread("leaf").Alloc(tr.alloc).Work(tr.work).Free(tr.alloc).Spec()
		for d := int64(0); d < tr.depth; d++ {
			spec = dag.Par2("node", spec, spec)
		}
		specs[fmt.Sprintf("tree%d", tr.depth)] = spec
	}
	for name, spec := range specs {
		want := dag.Walk(spec, dag.ParentFirst)
		st, err := grt.RunSpec(grt.Config{Workers: 1, Seed: 1}, spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.HeapHW != want.HeapHW || st.MaxLiveThreads != want.MaxLiveSerial || st.TotalThreads != want.TotalThreads {
			t.Errorf("%s: run heap HW %d, live %d, threads %d; parent-first walk %d, %d, %d", name,
				st.HeapHW, st.MaxLiveThreads, st.TotalThreads, want.HeapHW, want.MaxLiveSerial, want.TotalThreads)
		}
	}
}

// randomProgram draws a nested-parallel program whose joins fall anywhere
// after their forks and whose frees need not match its allocations: a
// child's allocation may outlive it and a parent may free what a joined
// child left. A free is clamped to what dag.Validate lets the thread free
// (its own bytes and its joined children's), so the live count never goes
// negative. It returns the program and the bytes it leaves live.
func randomProgram(rng *rand.Rand, depth int) (*dag.ThreadSpec, int64) {
	b := dag.NewThread("r")
	var live int64
	var pending []int64 // forked children's live bytes, last first
	join := func() {
		b.Join()
		live += pending[len(pending)-1]
		pending = pending[:len(pending)-1]
	}
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		switch r := rng.Intn(6); {
		case r == 0:
			n := int64(rng.Intn(1000))
			b.Alloc(n)
			live += n
		case r == 1:
			n := min(int64(rng.Intn(1000)), live)
			b.Free(n)
			live -= n
		case r <= 3 && depth < 5:
			c, n := randomProgram(rng, depth+1)
			b.Fork(c)
			pending = append(pending, n)
		case r == 4 && len(pending) > 0:
			join()
		default:
			b.Work(1)
		}
	}
	for len(pending) > 0 {
		join()
	}
	return b.Spec(), live
}

func dncSpec(levels int, space int64) *dag.ThreadSpec {
	if levels == 0 {
		return dag.NewThread("leaf").Alloc(space).Work(3).Free(space).Spec()
	}
	l := dncSpec(levels-1, space/2)
	r := dncSpec(levels-1, space/2)
	return dag.NewThread("node").
		Alloc(space).
		Fork(l).Fork(r).Join().Join().
		Free(space).
		Spec()
}

// TestRunSpecQuotaAgreesWithSimulator: a single-worker DFDeques run of a
// quota-stressed program must preempt on both engines (the policies are
// the same algorithm).
func TestRunSpecQuotaAgreesWithSimulator(t *testing.T) {
	spec := dag.NewThread("chain").
		Alloc(60).Alloc(60).Free(120).
		Spec()
	st, err := grt.RunSpec(grt.Config{Workers: 1, Sched: grt.DFDeques, K: 100, Seed: 1}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{Procs: 1, Seed: 1, Scheduler: "DFD", K: 100})
	met, err := m.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if (st.Preemptions == 0) != (met.Preemptions == 0) {
		t.Errorf("engines disagree on preemption: grt=%d sim=%d", st.Preemptions, met.Preemptions)
	}
	if st.HeapHW != met.HeapHW {
		t.Errorf("heap HW differs: grt=%d sim=%d", st.HeapHW, met.HeapHW)
	}
}

// TestRunSpecDummiesAgree: both engines must fork the same number of
// dummy threads for a big allocation.
func TestRunSpecDummiesAgree(t *testing.T) {
	spec := dag.NewThread("big").Alloc(1000).Work(2).Free(1000).Spec()
	st, err := grt.RunSpec(grt.Config{Workers: 2, Sched: grt.DFDeques, K: 100, Seed: 2}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{Procs: 2, Seed: 2, Scheduler: "DFD", K: 100})
	met, err := m.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.DummyThreads != met.DummyThreads {
		t.Errorf("dummy threads: grt=%d sim=%d", st.DummyThreads, met.DummyThreads)
	}
}

// TestRunSpecWorkloadsSmoke: the paper's benchmarks run on the real
// runtime too (reduced work scale to keep the test fast).
func TestRunSpecWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, w := range workload.All() {
		spec := w.Build(workload.Medium)
		want := dag.Measure(spec)
		st, err := grt.RunSpec(grt.Config{Workers: 4, Sched: grt.DFDeques, K: 3000, Seed: 3}, spec, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		// Dummy threads are extra; everything else must match.
		if st.TotalThreads-st.DummyThreads < want.TotalThreads {
			t.Errorf("%s: threads = %d (%d dummies), want ≥ %d",
				w.Name, st.TotalThreads, st.DummyThreads, want.TotalThreads)
		}
	}
}

// TestRunSpecLocksWork: lock-using specs hold mutual exclusion on the
// real runtime.
func TestRunSpecLocksWork(t *testing.T) {
	spec := workload.BarnesHutTreeBuild(workload.Medium)
	if _, err := grt.RunSpec(grt.Config{Workers: 4, Sched: grt.DFDeques, Seed: 4}, spec, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRunSpecRejectsInvalid: validation errors surface, from RunSpec and
// from SpecBody.
func TestRunSpecRejectsInvalid(t *testing.T) {
	bad := &dag.ThreadSpec{Instrs: []dag.Instr{{Op: dag.OpJoin}}}
	if _, err := grt.RunSpec(grt.Config{Workers: 1, Sched: grt.FIFO}, bad, 1); err == nil {
		t.Fatal("expected validation error")
	}
	unjoined := &dag.ThreadSpec{Instrs: []dag.Instr{{Op: dag.OpFork, Child: dag.NewThread("c").Work(1).Spec()}}}
	if _, err := grt.SpecBody(unjoined, 1); err == nil {
		t.Fatal("SpecBody accepted a fork that is never joined")
	}
}

// TestSpecRunAllocsDoNotGrowWithForks: an interpreted fork tree
// allocates per distinct sub-program (a tree has one per level), not per
// fork. Depth 8 forks 240 more threads than depth 4; a closure per fork
// would show as at least 240 more allocations.
func TestSpecRunAllocsDoNotGrowWithForks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rt, err := grt.New(grt.Config{Workers: 1, Sched: grt.DFDeques, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	allocs := func(depth int) float64 {
		spec := dag.NewThread("leaf").Work(1).Spec()
		for d := 0; d < depth; d++ {
			spec = dag.Par2("node", spec, spec)
		}
		return testing.AllocsPerRun(50, func() {
			body, err := grt.SpecBody(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			j, err := rt.Submit(context.Background(), body)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const perLevel = 4 // a body, and a share of its map's growth
	a4, a8 := allocs(4), allocs(8)
	if grown := a8 - a4; grown > 4*perLevel {
		t.Fatalf("allocations per run: %.1f at depth 4, %.1f at depth 8 — %.1f more for 4 more levels", a4, a8, grown)
	}
	t.Logf("allocations per run: %.1f at depth 4, %.1f at depth 8", a4, a8)
}
