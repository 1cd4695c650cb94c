package serve

// Cost-based load shedding prices a declared job shape before it touches
// the runtime, so a job that could never fit its tenant's budget is
// refused at submit time (429 cost_shed) instead of being admitted,
// scheduled, and killed mid-run — the paper's space bound turned into an
// admission predicate. The price is read off dag.Walk in the order the
// runtime runs a program: parent-first.

import "dfdeques/internal/dag"

// price predicts the live-memory cost of a lowered program as
//
//	S1 + K·D
//
// where S1 is the serial space of the declared tree — the peak of the live
// counter over the parent-first serial walk, which is the runtime's own
// schedule on one worker — and D its maximum fork-nesting depth. S1 is
// what the job needs on one processor; K·D is the per-branch slice of the
// paper's S1 + O(K·p·D) bound: each nesting level can contribute up to one
// stolen thread's K-byte allocation burst beyond the serial footprint. The
// price deliberately ignores p — it charges the job's own worst branch,
// not the whole machine — and is a shedding heuristic, not a guarantee:
// parallel overshoot beyond it is still policed by the in-run budget kill.
//
// Scenario jobs are not priced (cost 0): their footprints are internal
// to internal/workload, tiny by construction, and not declared in the
// request.
func price(spec *dag.ThreadSpec, k int64) int64 {
	m := dag.Walk(spec, dag.ParentFirst)
	return m.HeapHW + k*m.Nesting
}
