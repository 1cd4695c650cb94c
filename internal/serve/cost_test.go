package serve

import (
	"math/rand"
	"testing"

	"dfdeques/internal/dag"
)

// walkPrice is the price function as it was before the per-spec memo: the
// child-first serial walk itself, one live counter threaded through every
// node of the tree. The reference price is pinned against.
func walkPrice(spec *dag.ThreadSpec, k int64) int64 {
	var live, peak int64
	var walk func(spec *dag.ThreadSpec, d int64) int64
	walk = func(spec *dag.ThreadSpec, d int64) int64 {
		maxD := d
		for _, in := range spec.Instrs {
			switch in.Op {
			case dag.OpAlloc:
				live += in.N
				peak = max(peak, live)
			case dag.OpFree:
				live -= in.N
			case dag.OpFork:
				maxD = max(maxD, walk(in.Child, d+1))
			}
		}
		return maxD
	}
	return peak + k*walk(spec, 0)
}

// randomSpec draws a wire program whose frees need not match its allocations
// — the live counter goes negative, children free what parents allocated —
// with forks joined at the end.
func randomSpec(rng *rand.Rand, depth int) *SpecNode {
	n := &SpecNode{Label: "n"}
	forks := 0
	for i, m := 0, 1+rng.Intn(6); i < m; i++ {
		switch r := rng.Intn(4); {
		case r == 0:
			n.Instrs = append(n.Instrs, SpecInstr{Op: "alloc", N: int64(rng.Intn(1000))})
		case r == 1:
			n.Instrs = append(n.Instrs, SpecInstr{Op: "free", N: int64(rng.Intn(1000))})
		case r == 2 && depth < 5:
			n.Instrs = append(n.Instrs, SpecInstr{Op: "fork", Child: randomSpec(rng, depth+1)})
			forks++
		default:
			n.Instrs = append(n.Instrs, SpecInstr{Op: "work", N: 1})
		}
	}
	for ; forks > 0; forks-- {
		n.Instrs = append(n.Instrs, SpecInstr{Op: "join"})
	}
	return n
}

// TestPriceEqualsTheSerialWalk pins price, which visits each distinct
// *ThreadSpec once, to the walk that visits every node: on the benchmark's
// three trees (bench/dfdbench/workloads.go), on the largest tree a request
// may declare, and on random lowered programs.
func TestPriceEqualsTheSerialWalk(t *testing.T) {
	const k = 1024
	for _, tr := range []TreeSpec{
		{Depth: 4, Alloc: 128, Work: 16}, {Depth: 8, Alloc: 512, Work: 32},
		{Depth: 11, Alloc: 2048, Work: 64}, {Depth: maxTreeDepth, Alloc: 64},
	} {
		// compileTree's lowering, kept: price must equal the walk of this spec.
		leaf := dag.NewThread("leaf").Alloc(tr.Alloc)
		if tr.Work > 0 {
			leaf.Work(tr.Work)
		}
		spec := leaf.Free(tr.Alloc).Spec()
		for d := 0; d < tr.Depth; d++ {
			spec = dag.Par2("node", spec, spec)
		}
		run, err := compileTree(JobRequest{Tree: &tr}, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := walkPrice(spec, k); run.cost != want || want != tr.Alloc+k*int64(tr.Depth) {
			t.Errorf("tree %+v: price %d, walk %d, leaf + K·depth %d", tr, run.cost, want, tr.Alloc+k*int64(tr.Depth))
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		spec, _, err := lowerSpec(randomSpec(rng, 0), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := price(spec, k), walkPrice(spec, k); got != want {
			t.Fatalf("program %d: price %d, walk %d", i, got, want)
		}
	}
}
