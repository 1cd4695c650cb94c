// Package core implements the heart of the paper's contribution — the
// DFDeques ready-thread pool (§3.2–3.3): the globally ordered list R of
// ready deques together with the owner/thief operations of algorithm
// DFDeques, as one structure, SharedPool, with two drivers:
//
//   - the concurrent runtime's DFDeques policy (internal/policy) drives it
//     from every worker at once, through the fine-grained protocol
//     described on SharedPool;
//   - the machine simulator (internal/machine), through the same policy,
//     drives it serially, using BeginRound/StealFrom for the §4.1
//     per-timestep steal arbitration (at most one successful steal per
//     deque per round) and its ablation switches.
//
// Tests drive it directly to property-check the Lemma 3.1 ordering
// invariants (CheckInvariants) without a machine in the loop.
package core
