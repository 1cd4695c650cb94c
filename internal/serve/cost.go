package serve

// Cost-based load shedding prices a declared job shape before it touches
// the runtime, so a job that could never fit its tenant's headroom is
// refused at submit time (429 cost_shed) instead of being admitted,
// scheduled, and killed mid-run — the paper's space bound turned into an
// admission predicate.

import "dfdeques/internal/dag"

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
	var live, peak int64
	depth := walkCost(spec, &live, &peak, 0)
	return peak + k*depth
}

// walkCost runs the child-first serial walk of spec, threading one live
// byte counter (and its peak = S1) through the whole program, and
// returns the maximum fork-nesting depth reached at or below spec.
func walkCost(spec *dag.ThreadSpec, live, peak *int64, d int64) int64 {
	maxD := d
	for _, in := range spec.Instrs {
		switch in.Op {
		case dag.OpAlloc:
			*live += in.N
			if *live > *peak {
				*peak = *live
			}
		case dag.OpFree:
			*live -= in.N
		case dag.OpFork:
			if cd := walkCost(in.Child, live, peak, d+1); cd > maxD {
				maxD = cd
			}
		}
	}
	return maxD
}
