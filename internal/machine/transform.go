package machine

import (
	"dfdeques/internal/dag"
	"dfdeques/internal/policy"
)

// dummyTreeCached builds (and memoizes in cache) the binary fork tree with
// n dummy leaves; for n == 1 it is the dummy leaf itself.
func dummyTreeCached(cache map[int64]*dag.ThreadSpec, n int64) *dag.ThreadSpec {
	if t, ok := cache[n]; ok {
		return t
	}
	var t *dag.ThreadSpec
	if n == 1 {
		t = &dag.ThreadSpec{
			Instrs: []dag.Instr{{Op: dag.OpDummy}},
			Label:  "dummy",
		}
	} else {
		ln, rn := policy.SplitDummies(n)
		left := dummyTreeCached(cache, ln)
		right := dummyTreeCached(cache, rn)
		t = &dag.ThreadSpec{
			Instrs: []dag.Instr{
				{Op: dag.OpFork, Child: left, DummyFork: ln == 1},
				{Op: dag.OpFork, Child: right, DummyFork: rn == 1},
				{Op: dag.OpJoin},
				{Op: dag.OpJoin},
			},
			Label: "dummy-tree",
		}
	}
	cache[n] = t
	return t
}

// spliceDummies rewrites thread t — which is about to execute a big
// allocation of n > k bytes — so that it first forks and joins a binary
// tree of ⌈n/k⌉ dummy threads and only then performs the (quota-exempt)
// allocation. This is the paper's §3.3 transformation applied at runtime,
// which is what lets an adaptively changing threshold take effect.
func (m *Machine) spliceDummies(t *Thread, n, k int64) {
	if m.dummyTrees == nil {
		m.dummyTrees = make(map[int64]*dag.ThreadSpec)
	}
	leaves := policy.DummyLeaves(n, k)
	tree := dummyTreeCached(m.dummyTrees, leaves)
	tail := t.Spec.Instrs[t.PC:] // tail[0] is the OpAlloc being delayed
	instrs := make([]dag.Instr, 0, len(tail)+2)
	instrs = append(instrs,
		dag.Instr{Op: dag.OpFork, Child: tree, DummyFork: leaves == 1},
		dag.Instr{Op: dag.OpJoin},
		dag.Instr{Op: dag.OpAlloc, N: n, Exempt: true},
	)
	instrs = append(instrs, tail[1:]...)
	t.Spec = &dag.ThreadSpec{Instrs: instrs, Label: t.Spec.Label}
	t.PC = 0
}
