package machine

import (
	"testing"

	"dfdeques/internal/dag"
)

func TestTransformRewritesLargeAlloc(t *testing.T) {
	spec := dag.NewThread("big").Alloc(1000).Free(1000).Spec()
	th := &Thread{Spec: spec}
	new(Machine).spliceDummies(th, 1000, 100)
	got := th.Spec
	if got == spec {
		t.Fatal("expected a rewritten spec")
	}
	if err := dag.Validate(got); err != nil {
		t.Fatal(err)
	}
	// Layout: fork(dummy tree), join, exempt alloc, free.
	ops := []dag.Op{dag.OpFork, dag.OpJoin, dag.OpAlloc, dag.OpFree}
	if len(got.Instrs) != len(ops) {
		t.Fatalf("instrs = %d, want %d", len(got.Instrs), len(ops))
	}
	for i, op := range ops {
		if got.Instrs[i].Op != op {
			t.Fatalf("instr %d = %v, want %v", i, got.Instrs[i].Op, op)
		}
	}
	if !got.Instrs[2].Exempt {
		t.Fatal("rewritten alloc must be quota-exempt")
	}
	// The dummy tree must hold ⌈1000/100⌉ = 10 OpDummy leaves.
	if n := countDummies(got); n != 10 {
		t.Fatalf("dummy leaves = %d, want 10", n)
	}
}

func TestTransformDepthLogarithmic(t *testing.T) {
	// 1024 dummies in a binary tree add ~4–5 actions of depth per level
	// (two forks and two joins), i.e. O(log n), not O(n).
	got := dag.Measure(dummyTreeCached(map[int64]*dag.ThreadSpec{}, 1<<10))
	if got.D > 6*10+10 {
		t.Errorf("dummy tree depth %d too large", got.D)
	}
	if got.TotalThreads < 1024 {
		t.Errorf("threads = %d, want ≥ 1024 dummies", got.TotalThreads)
	}
}

func countDummies(spec *dag.ThreadSpec) int {
	seen := map[*dag.ThreadSpec]int{}
	var walk func(*dag.ThreadSpec) int
	walk = func(s *dag.ThreadSpec) int {
		// Count per dynamic instance (shared specs fork multiple times).
		n := 0
		for _, in := range s.Instrs {
			if in.Op == dag.OpDummy {
				n++
			}
			if in.Op == dag.OpFork {
				n += walk(in.Child)
			}
		}
		return n
	}
	_ = seen
	return walk(spec)
}
