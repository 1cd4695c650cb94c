// Package policy is the single home of the scheduling policies the paper
// studies — DFDeques(K) (§3.3), the ADF depth-first scheduler, and the
// FIFO baseline — factored out of the two engines that drive them, event
// by event, through the same Policy values. The WS work stealer of
// Blumofe & Leiserson has no type of its own: on nested-parallel programs
// it is DFDeques(∞) (§3.3), so both engines build DFD with K = 0 for it.
// The two engines are:
//
//   - the real concurrent runtime (internal/grt), which forks
//     parent-first;
//   - the serial machine simulator (internal/machine), which forks
//     child-first under DFDeques and ADF and adds only the §4.1 cost
//     model: per-timestep steal arbitration, victim draws from its seeded
//     rng, queue-latency stalls.
//
// Where the cost model needs a rule of its own, the simulator calls a
// serial-engine entry, never a setting: NewSerialDFD (a give-up leaves its
// steal to the next round, which DFD.BeginRound and DFD.StealFrom run),
// DFD.ForkChildFirst (the child runs next, the parent is pushed), and
// ADF.ForkChildFirst (the child-first fork refills the quota). Both
// record the fork with its true roles, so the simulator's stream replays
// through rtrace.Verify as the runtime's does.
//
// DFD owns R: the globally ordered deque list of §3.2–3.3, its owner and
// thief protocol, the leftmost-p bottom steal, the per-steal memory quota
// K and the dummy give-up are one type, and the deque (internal/deque) is
// only a deque. ADF and FIFO share one body, a Queue behind a counted
// lock. Each policy therefore exists exactly once; a new scheduler lands
// in one file here instead of one per engine.
//
// Lock-order contract (shared with internal/grt): each policy has one
// serializing lock — DFD's R spine, the queue policies' queue lock — and
// it is a leaf: the less callback runs under it and takes no lock. Deques
// themselves carry no lock: every item operation is nonblocking (the
// ABP-style tag/bottom protocol in internal/deque), so owners and thieves
// never serialize on anything but the spine for membership changes. See
// DESIGN.md §5.
package policy

import (
	"sync"
	"sync/atomic"
	"time"

	"dfdeques/internal/rtrace"
)

// Stats is the counter set every runtime policy reports.
type Stats struct {
	// Steals counts successful shared acquisitions: deque steals for
	// DFDeques, global-queue takes for ADF and FIFO.
	Steals int64
	// FailedSteals counts steal attempts that found no victim.
	FailedSteals int64
	// LocalDispatches counts own-deque pops (DFDeques only).
	LocalDispatches int64
	// LockOps counts exclusive acquisitions of the policy's serializing
	// lock: the R spine for DFDeques, the queue lock for the
	// global-queue policies.
	LockOps int64
	// LockWaitNs is the total time workers spent waiting to acquire that
	// lock; 0 unless the policy's MeasureLockWait was called.
	LockWaitNs int64
	// MaxDeques is the high-water mark of the ready structure: len(R) for
	// DFDeques (at most the worker count when K = ∞, §3.3), 1 for the
	// global-queue policies.
	MaxDeques int
}

// Policy is the scheduling policy as the concurrent runtime's workers see
// it: one method per scheduling event of the paper's Figure 5 loop. All
// methods are safe for concurrent use; methods taking a worker index w
// must only be called by worker w. The engine owns parking, accounting and
// the join protocol; the policy owns every ready-thread decision.
type Policy[T any] interface {
	// Name identifies the policy ("DFDeques", "ADF", "FIFO").
	Name() string
	// Threshold is the memory threshold K in bytes for the dummy-thread
	// transformation of large allocations; 0 disables it (DFDeques(∞),
	// which is WS).
	Threshold() int64
	// Seed publishes the root thread before any worker runs.
	Seed(t T)
	// Inject publishes a thread from outside any worker while workers may
	// be running: a newly submitted job's root, or a canceled job's
	// blocked thread being republished so a worker can retire it. Under
	// DFDeques the thread is appended in a new deque at the right end of
	// R: roots are minted at the back of the priority order, so that IS
	// their priority position and Lemma 3.1 survives mid-run injection
	// with no comparison at all; swept threads only need a dispatch to
	// die (their streams are ordering-inexact anyway, §5). ADF inserts at
	// the priority slot of its queue. Because later-submitted roots enter
	// at back-of-priority, the order a serving layer injects admitted
	// jobs IS their execution-priority order among roots — an admission
	// controller (internal/serve) implements weighted-fair scheduling
	// purely by choosing its Inject order, with no policy cooperation
	// needed.
	Inject(t T)
	// ForkCont handles a fork event on worker w: the parent keeps running
	// inline and the child is published. The runtime forks parent-first,
	// so child is the 1DF successor of parent — what the paper calls the
	// pushed parent — and the deque policies push it on top of w's own
	// deque exactly as §3.3 pushes the parent: the top stays the deque's
	// highest priority and the steal end its lowest. Global-queue
	// policies insert the child at its priority position. Per-dispatch
	// quotas are NOT reset: the parent's dispatch continues. The policy
	// records the fork (EvFork) as well as the publish, so that the deque
	// policies can write both as one burst (rtrace.BurstForkPush).
	ForkCont(w int, parent, child T)
	// JoinPop claims child for parent's inline join on worker w: remove
	// child from the ready structure iff it is still exactly where
	// ForkCont published it (the top of w's own deque), reporting success.
	// The check and the removal must be one linearization point so a
	// racing steal cannot double-claim the thread. A claim is recorded
	// with the parent's join block and the child's inline dispatch, as one
	// burst (rtrace.BurstJoinInline). Global-queue policies always return
	// false — an inline claim would bypass the queue's order.
	JoinPop(w int, parent, child T) bool
	// Charge deducts n bytes from w's memory quota; false means the quota
	// is exhausted and the engine must preempt the thread without
	// performing the allocation (§3.3). Policies without a quota always
	// return true.
	Charge(w int, n int64) bool
	// Credit returns n freed bytes to w's quota (quota bounds *net*
	// allocation).
	Credit(w int, n int64)
	// Preempt republishes a thread the engine preempted after Charge
	// vetoed its allocation of n bytes. Only reachable on policies whose
	// Charge can return false. Ahead of the republish it records the veto
	// (EvQuotaExhaust) and the worker's turn to stealing (EvIdle), led by
	// t's promotion (EvPromote, B = 1) if the engine promoted t to stop
	// here. The engine's next call on w is Acquire; a policy may make that
	// attempt here, in the section that republishes t, and have Acquire
	// report it. DFDeques does, and records the whole give-up at the end
	// of that section: one burst for the veto, the turn to stealing, the
	// push, the release and the failed redraws (rtrace.BurstGiveUp,
	// BurstPromoteGiveUp), which reads the clock, and one for the steal
	// and the stolen thread's dispatch, which takes the same timestamp —
	// so the give-up's idle stretch is zero-length in the trace.
	Preempt(w int, t T, n int64, promoted bool)
	// Wake publishes a thread woken by a lock release or future write at
	// its priority position (§5's extension beyond nested parallelism).
	Wake(w int, t T)
	// Next picks w's next thread after its current one suspended or
	// blocked: the own-deque pop for the deque policies, a queue take for
	// the global-queue policies. ok is false when w must steal (Acquire).
	Next(w int) (T, bool)
	// Terminate picks w's next thread after its current one terminated,
	// waking woke (the joined parent) if hasWoke. It owns the §3.3
	// dummy-termination give-up and FIFO's requeue-the-parent rule. On
	// false the engine's next call on w is Acquire, as after Preempt. A
	// dummy's give-up is recorded as Preempt's is, after the engine's
	// record of the dummy's completion, which reads the clock: the turn
	// to stealing, the republished woke, the release and the failed
	// redraws as one burst (rtrace.BurstDummyGiveUp, or
	// BurstDummyRelease and BurstDummyRetire with nothing to republish),
	// then the steal's, both on the completion's timestamp.
	Terminate(w int, woke T, hasWoke bool) (T, bool)
	// Dummy records that w executed a dummy thread; DFDeques gives up the
	// deque at the dummy's termination (§3.3).
	Dummy(w int)
	// Acquire makes one non-blocking attempt to get a thread for an idle
	// worker (a steal, or a queue take) — or reports, exactly once, the
	// attempt w's last give-up already made: every route out of a give-up
	// leads here, for canceled jobs too, so a thread taken there is never
	// stranded. On success the policy resets w's quota and records the
	// thread's dispatch (EvDispatch, SrcAcquire; DFDeques in the steal's
	// burst). The engine loops, spins and parks around it.
	Acquire(w int) (T, bool)
	// Pause tells the policy that w stops hunting for now: it parks,
	// backs off or leaves the acquire loop. DFDeques counts a hunt's
	// failed attempts instead of recording each, and writes them here as
	// one burst (rtrace.BurstMisses) if its next steal has not.
	Pause(w int)
	// HasWork reports (lock-free where possible) whether any thread is
	// published; the engine's park protocol re-checks it.
	HasWork() bool
	// Stats returns the policy's counters; called once, after the run.
	Stats() Stats
	// Instrument attaches a trace probe (see internal/rtrace); tid
	// extracts a thread's stable id for the event payloads, and dummy
	// whether a forked thread is a dummy leaf (EvFork's flag). Call before
	// the policy is shared.
	Instrument(p rtrace.Probe, tid func(T) int64, dummy func(T) bool)
	// MeasureLockWait turns on timing of the waits for the policy's
	// serializing lock (Stats.LockWaitNs). Call before the policy is
	// shared.
	MeasureLockWait()
}

// countedLock is a policy's one serializing lock — DFD's R spine, the
// queue policies' queue lock — with its contention counters: every
// exclusive acquisition is counted, and once timeWait is set the time
// spent waiting for it is accumulated too (two clock reads per
// acquisition would distort what the counter exists to explain, so the
// timing is off by default).
type countedLock struct {
	mu         sync.RWMutex
	lockOps    atomic.Int64
	lockWaitNs atomic.Int64
	timeWait   bool
}

// MeasureLockWait implements Policy.
func (l *countedLock) MeasureLockWait() { l.timeWait = true }

func (l *countedLock) lock() {
	if l.timeWait {
		start := time.Now()
		l.mu.Lock()
		l.lockWaitNs.Add(time.Since(start).Nanoseconds())
	} else {
		l.mu.Lock()
	}
	l.lockOps.Add(1)
}

func (l *countedLock) unlock() { l.mu.Unlock() }

// tracer is a policy's trace probe (nil: tracing off) and the
// extractors its event payloads use.
type tracer[T any] struct {
	probe   rtrace.Probe
	tidOf   func(T) int64
	dummyOf func(T) bool
}

// Instrument implements Policy.
func (tr *tracer[T]) Instrument(p rtrace.Probe, tid func(T) int64, dummy func(T) bool) {
	tr.probe, tr.tidOf, tr.dummyOf = p, tid, dummy
}

// trace records one event when a probe is attached.
func (tr *tracer[T]) trace(w int, k rtrace.Kind, a, b, c int64) {
	if tr.probe != nil {
		tr.probe.Event(w, k, a, b, c)
	}
}

// traceThread records one event about thread x when a probe is attached.
// Only the check inlines into the hot paths that call it; the record is
// a call of its own, so tracing off costs no call.
func (tr *tracer[T]) traceThread(w int, k rtrace.Kind, x T, b, c int64) {
	if tr.probe != nil {
		tr.record(w, k, x, b, c)
	}
}

func (tr *tracer[T]) record(w int, k rtrace.Kind, x T, b, c int64) {
	tr.probe.Event(w, k, tr.tidOf(x), b, c)
}

// traceThreads records one event about threads x and y (A and B) when a
// probe is attached.
func (tr *tracer[T]) traceThreads(w int, k rtrace.Kind, x, y T, c int64) {
	if tr.probe != nil {
		tr.recordPair(w, k, x, y, c)
	}
}

func (tr *tracer[T]) recordPair(w int, k rtrace.Kind, x, y T, c int64) {
	tr.probe.Event(w, k, tr.tidOf(x), tr.tidOf(y), c)
}

// traceFork records parent's fork of child when a probe is attached: k
// is EvFork, with id 0, or BurstForkPush, with the id of the deque the
// child is pushed on. C is the id above the child's dummy flag.
func (tr *tracer[T]) traceFork(w int, k rtrace.Kind, parent, child T, id int64) {
	if tr.probe != nil {
		tr.recordFork(w, k, parent, child, id)
	}
}

func (tr *tracer[T]) recordFork(w int, k rtrace.Kind, parent, child T, id int64) {
	c := id << 1
	if tr.dummyOf(child) {
		c |= 1
	}
	tr.recordPair(w, k, parent, child, c)
}

// Quota is the per-worker memory-quota vector shared by every K-bounded
// policy in both engines: DFDeques' per-steal quota and ADF's per-dispatch
// quota (§3.3, footnote 14). The threshold k is passed per call so an
// adaptive controller (§7) can move it between calls; k = 0 means no
// quota. Entry w is only ever touched by worker/processor w, so the vector
// needs no locking even in the concurrent runtime, and each entry has a
// cache line of its own: Charge and Credit write it on every allocation.
type Quota struct {
	rem []quotaLane
}

type quotaLane struct {
	n int64
	_ [56]byte
}

// NewQuota returns a quota vector for p workers, all exhausted until the
// first Reset.
func NewQuota(p int) *Quota { return &Quota{rem: make([]quotaLane, p)} }

// Reset refills w's quota to k (on a successful steal or dispatch).
func (q *Quota) Reset(w int, k int64) { q.rem[w].n = k }

// Charge deducts n bytes from w's quota; false means exhausted (the
// caller must preempt without allocating). k = 0 never vetoes.
func (q *Quota) Charge(w int, n, k int64) bool {
	if k == 0 {
		return true
	}
	if r := &q.rem[w].n; n <= *r {
		*r -= n
		return true
	}
	return false
}

// Credit returns n freed bytes to w's quota, clamped to k: the quota
// bounds net allocation between steals.
func (q *Quota) Credit(w int, n, k int64) {
	if k == 0 {
		return
	}
	r := &q.rem[w].n
	*r = min(*r+n, k)
}

// Remaining returns w's unspent quota.
func (q *Quota) Remaining(w int) int64 { return q.rem[w].n }

// DummyLeaves returns the number of dummy threads the §3.3 big-allocation
// transformation forks before an allocation of n > k bytes: ⌈n/k⌉, one
// virtual allocation of k per leaf.
func DummyLeaves(n, k int64) int64 { return (n + k - 1) / k }

// SplitDummies splits a dummy tree of n > 1 leaves into its two subtrees.
// Both engines build the same shape from it, which is what makes thread
// and dummy counts comparable across the simulator and the real runtime.
func SplitDummies(n int64) (left, right int64) { return n / 2, n - n/2 }
