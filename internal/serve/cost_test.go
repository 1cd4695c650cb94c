package serve

import (
	"math/rand"
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/grt"
)

// randomSpec draws a wire program whose frees need not match its
// allocations — allocations outlive their thread, parents free what joined
// children left — with each fork joined at a random later point of its
// thread, and the rest at the end. A free is clamped to what the thread
// covers (dag.Validate's rule: its own bytes and its joined children's),
// or compile would refuse the program. It returns the program and the
// bytes it leaves live.
func randomSpec(rng *rand.Rand, depth int) (*SpecNode, int64) {
	n := &SpecNode{Label: "n"}
	var live int64
	var pending []int64 // forked children's live bytes, last first
	join := func() {
		n.Instrs = append(n.Instrs, SpecInstr{Op: "join"})
		live += pending[len(pending)-1]
		pending = pending[:len(pending)-1]
	}
	for i, m := 0, 1+rng.Intn(6); i < m; i++ {
		switch r := rng.Intn(5); {
		case r == 0:
			b := int64(rng.Intn(1000))
			n.Instrs = append(n.Instrs, SpecInstr{Op: "alloc", N: b})
			live += b
		case r == 1:
			b := min(int64(rng.Intn(1000)), live)
			n.Instrs = append(n.Instrs, SpecInstr{Op: "free", N: b})
			live -= b
		case r == 2 && depth < 5:
			c, b := randomSpec(rng, depth+1)
			n.Instrs = append(n.Instrs, SpecInstr{Op: "fork", Child: c})
			pending = append(pending, b)
		case r == 3 && len(pending) > 0:
			join()
		default:
			n.Instrs = append(n.Instrs, SpecInstr{Op: "work", N: 1})
		}
	}
	for len(pending) > 0 {
		join()
	}
	return n, live
}

// oneWorkerHeapHW runs spec on the runtime itself — one worker, no quota,
// so nothing is stolen or preempted — and returns its heap high-water.
func oneWorkerHeapHW(t *testing.T, spec *dag.ThreadSpec) int64 {
	t.Helper()
	st, err := grt.RunSpec(grt.Config{Workers: 1, Seed: 1}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return st.HeapHW
}

// benchTrees are the benchmark's three tree jobs (bench/dfdbench/workloads.go).
var benchTrees = []TreeSpec{
	{Depth: 4, Alloc: 128, Work: 16}, {Depth: 8, Alloc: 512, Work: 32}, {Depth: 11, Alloc: 2048, Work: 64},
}

// treeSpec is compileTree's lowering, kept: the tests below price and run
// this spec, and check that compileTree prices it the same.
func treeSpec(tr TreeSpec) *dag.ThreadSpec {
	leaf := dag.NewThread("leaf").Alloc(tr.Alloc)
	if tr.Work > 0 {
		leaf.Work(tr.Work)
	}
	spec := leaf.Free(tr.Alloc).Spec()
	for d := 0; d < tr.Depth; d++ {
		spec = dag.Par2("node", spec, spec)
	}
	return spec
}

// TestPriceEqualsTheSerialWalk pins price's S1 term to the schedule it
// stands for: at K = 0 it must equal the heap high-water of a one-worker
// run of the same program, on the benchmark's three trees, on the largest
// tree a request may declare, and on random lowered programs with joins
// mid-thread. Trees price at leaf + K·depth.
func TestPriceEqualsTheSerialWalk(t *testing.T) {
	const k = 1024
	for _, tr := range append(benchTrees, TreeSpec{Depth: maxTreeDepth, Alloc: 64}) {
		run, err := compileTree(JobRequest{Tree: &tr}, k)
		if err != nil {
			t.Fatal(err)
		}
		spec := treeSpec(tr)
		if want := tr.Alloc + k*int64(tr.Depth); run.cost != want || price(spec, k) != want {
			t.Errorf("tree %+v: price %d (of the lowering here %d), leaf + K·depth %d", tr, run.cost, price(spec, k), want)
		}
		if got, want := price(spec, 0), oneWorkerHeapHW(t, spec); got != want {
			t.Errorf("tree %+v: price at K = 0 %d, one-worker heap high-water %d", tr, got, want)
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		prog, _ := randomSpec(rng, 0)
		spec, _, err := lowerSpec(prog, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := price(spec, 0), oneWorkerHeapHW(t, spec); got != want {
			t.Fatalf("program %d: price at K = 0 %d, one-worker heap high-water %d", i, got, want)
		}
	}
}

// TestPriceAllocations pins what pricing a tree job costs the allocator:
// nothing on the benchmark's depth-4 tree, whose five distinct specs fit
// the memo's first table, and at most three allocations on the deeper two.
func TestPriceAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for i, want := range []float64{0, 3, 3} {
		spec := treeSpec(benchTrees[i])
		if got := testing.AllocsPerRun(100, func() { price(spec, 1024) }); got > want {
			t.Errorf("tree %+v: price allocates %.1f times, want ≤ %.0f", benchTrees[i], got, want)
		}
	}
}
