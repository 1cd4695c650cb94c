package serve

// Cost-based load shedding prices a declared job shape before it touches
// the runtime, so a job that could never fit its tenant's budget is
// refused at submit time (429 cost_shed) instead of being admitted,
// scheduled, and killed mid-run — the paper's space bound turned into an
// admission predicate.

import (
	"math"

	"dfdeques/internal/dag"
)

// price predicts the live-memory cost of a lowered program as
//
//	S1 + K·D
//
// where S1 is the serial (1DF) space of the declared tree — the peak of
// the live counter over the child-first serial walk, dag.Measure's order.
// The runtime executes an unstolen program parent-first, which reaches the
// same peak whenever a fork's two branches are symmetric — and D its
// maximum fork-nesting depth. S1 is what the job needs on one processor; K·D is
// the per-branch slice of the paper's S1 + O(K·p·D) bound: each nesting
// level can contribute up to one stolen thread's K-byte allocation burst
// beyond the serial footprint. The price deliberately ignores p — it
// charges the job's own worst branch, not the whole machine — and is a
// shedding heuristic, not a guarantee: parallel overshoot beyond it is
// still policed by the in-run budget kill.
//
// Scenario jobs are not priced (cost 0): their footprints are internal
// to internal/workload, tiny by construction, and not declared in the
// request.
func price(spec *dag.ThreadSpec, k int64) int64 {
	c := costOf(spec, map[*dag.ThreadSpec]specCost{})
	return max(c.peak, 0) + k*c.depth
}

// specCost is what the child-first serial walk of one thread spec does to
// the live byte counter, relative to its value on entry: the net change, the
// highest value right after an allocation (noAlloc if the walk allocates
// nothing — a free moves no peak), and the fork-nesting depth below.
type specCost struct{ net, peak, depth int64 }

const noAlloc = math.MinInt64

// costOf computes spec's cost once per distinct *ThreadSpec: lowered trees
// share their subtrees (compileTree builds depth+1 specs for 2^depth
// leaves), and a walk that visits them as a tree is exponential in what the
// request paid for.
func costOf(spec *dag.ThreadSpec, memo map[*dag.ThreadSpec]specCost) specCost {
	if c, ok := memo[spec]; ok {
		return c
	}
	c := specCost{peak: noAlloc}
	for _, in := range spec.Instrs {
		switch in.Op {
		case dag.OpAlloc:
			c.net += in.N
			c.peak = max(c.peak, c.net)
		case dag.OpFree:
			c.net -= in.N
		case dag.OpFork:
			ch := costOf(in.Child, memo)
			if ch.peak != noAlloc {
				c.peak = max(c.peak, c.net+ch.peak)
			}
			c.net += ch.net
			c.depth = max(c.depth, 1+ch.depth)
		}
	}
	memo[spec] = c
	return c
}
