package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"dfdeques/internal/deque"
	"dfdeques/internal/rtrace"
)

// DFD is algorithm DFDeques(K) (§3.3) as a runtime policy: the globally
// ordered deque list R with leftmost-p bottom-steals, the per-steal memory
// quota and the dummy-termination give-up rule. K = 0 is DFDeques(∞),
// which is the WS work stealer on nested-parallel programs (§3.3): with no
// quota a worker never gives its deque up, so R holds at most one deque
// per worker.
//
// Synchronization design (see DESIGN.md §5, "beyond the paper"):
//
//   - Every item operation on a deque is NONBLOCKING: the ABP-style
//     tag/bottom protocol in internal/deque gives the owner a lock-free
//     PushTop/PopTop and thieves a single-CAS PopBottom, with a
//     generation tag defeating ABA across the freelist recycling below.
//     There is no per-deque mutex at all — a preempted thief can never
//     wedge an owner, and owners never block thieves.
//   - R's spine (membership and left-to-right order) is guarded by an
//     RWMutex. Only operations that change membership take it exclusively:
//     a steal (pop-bottom + insert-right must be one linearization point,
//     or two thieves hitting one victim could insert their deques in
//     inverted priority order), a give-up together with the steal that
//     follows it (giveUpSteal), deque deletion, and publish (Seed, Inject
//     and Wake). The read side covers cheap observations — including a
//     steal's screening phase, which rejects an empty victim via Len
//     without ever taking the spine exclusively. The spine serializes
//     thieves against each other and against membership changes, never
//     against an owner's push/pop: the steady-state owner hot path
//     acquires zero mutexes.
//   - The exclusive spine FREEZES unowned deques (owner == -1): no owner
//     pushes and thieves are excluded, so the contents are exact and every
//     item is a ready thread. The caller's own deque is frozen as well: its
//     owner is the caller. Placement in R compares only against those;
//     nothing but a thief's PopBottom CAS reads a deque another worker is
//     working.
//   - A pool-wide atomic counter of ready threads makes HasWork lock-free,
//     so idle workers can poll for work without touching any lock.
//   - A steal that drains an unowned victim takes the victim over in
//     place, under a fresh ID, instead of placing a new deque beside it
//     and retiring it: the common give-up-and-steal-back, an injected
//     root's first steal and a woken thread's all leave R's membership
//     alone. Only an owner retires a deque — its own, empty, under the
//     exclusive spine and after clearing its own pointer — and the retired
//     deque is Reset onto a freelist (guarded by the spine lock, which
//     covers every membership change already) for the next publish or the
//     next steal from a deque that keeps items, so neither allocates in
//     the steady state. The tag bump in Reset keeps a recycled deque's new
//     epoch apart from its old one.
//
// Trace linearization without locks: pushes are recorded BEFORE the item
// is published (a thief can only steal x after the owner's top-store
// makes it visible, which is after the record, so EvPush always carries
// an earlier global sequence number than the EvSteal of the same thread);
// pops and steals are recorded AFTER the claim succeeds. Steal and
// membership events are recorded under the exclusive spine, which
// linearizes R's structural history. Those are also the points where a
// decision's records can be written as one burst (rtrace's Burst kinds):
// the fork with its push before the push publishes, the inline join's
// claim with its block and dispatch after the claim, a steal's attempt,
// steal, takeover and dispatch inside its spine section, and a give-up's
// republish, release and failed redraws at the end of the section that
// made them all — the republish included, so no thief can see the thread
// before its push has its sequence number.
//
// The spine is a leaf lock: the less callback runs under it and takes
// none (internal/grt reads the order off its fork tree). less is called
// only by Wake — on frozen tops and the woken thread, all live — and by
// CheckInvariants.
type DFD[T comparable] struct {
	p      int
	less   func(a, b T) bool
	k      int64
	quota  *Quota
	lanes  []dfdLane[T] // [w] touched only by worker w, but for own
	serial bool         // driven by the simulator (NewSerialDFD)
	// seed derives every worker's private victim-selection stream (see
	// dfdLane.rng).
	seed int64
	tracer[T]

	countedLock // the R spine
	// r is R, left (highest priority) to right, guarded by the spine.
	// Steals index it in O(1); a membership change shifts the tail,
	// O(len R), which stays near p for small K and never passes p for
	// K = ∞ (§3.3).
	r []*rdeque[T]
	// free is the deque freelist, guarded by the spine: deques only leave
	// R under it, and only then may they be recycled.
	free []*rdeque[T]
	// deqID is the last deque ID drawn, advanced under the spine, where
	// every deque gets its ID: a new or recycled one in takeFree, a victim
	// taken over in take.
	deqID int64
	// robbed holds the IDs of the deques StealFrom took from since the last
	// BeginRound. IDs, not pointers: a victim taken over in place, or a
	// deque retired and recycled within one round, is a different deque
	// under a fresh ID.
	robbed []int64

	ready  atomic.Int64 // stealable threads across all deques in R
	maxR   atomic.Int64
	steals atomic.Int64 // counted under the spine
}

// dfdLane is one worker's private state. The trailing line of padding
// keeps any two workers' fields off a common cache line, whatever T's
// size.
type dfdLane[T comparable] struct {
	// own is the worker's deque, nil if it owns none. Only the worker
	// writes it, and only under the exclusive spine; the worker reads it
	// freely, any other goroutine only under the spine.
	own *rdeque[T]
	// tried is the steal attempt the worker's last give-up made inside its
	// own spine section, until Acquire hands it over.
	tried  attempt[T]
	giveUp bool // set by Dummy, consumed by Terminate
	// misses counts the hunt's failed screens not traced yet: they are
	// written as one burst ahead of the hunt's steal, or when the worker
	// pauses (Pause).
	misses int64
	// local and failed are the worker's own-deque dispatches and failed
	// steal attempts, summed by Stats.
	local, failed atomic.Int64
	// rng is the worker's victim-selection stream, derived
	// deterministically from (run seed, w) by WorkerSeed: same-seed runs
	// draw the same victim sequences per worker, and the steal path never
	// serializes on a shared generator. Seeded lazily at the worker's
	// first steal: math/rand's seeding fills a 607-word feedback register,
	// and paying that p times up front dominates short runs' construction
	// cost.
	rng *rand.Rand
	_   [64]byte
}

// attempt is the outcome of one steal attempt, x valid iff ok; made tells
// the zero value (nothing remembered) from a remembered failure.
type attempt[T any] struct {
	x        T
	ok, made bool
}

// rdeque is a member of R: one processor's deque plus DFD's bookkeeping
// for it, which the deque itself never reads. owner is the worker that
// owns it, or -1; it is read and written under the spine. id names the
// deque in traces, and it is not fixed for the deque's life: a fresh one
// is drawn whenever the deque begins a new life in R — recycled from the
// freelist, or taken over in place by the thief that drained it. id is
// written only under the exclusive spine, while the deque is unowned or
// out of R, and read by its owner after the hand-off that made it the
// owner, or under the spine.
type rdeque[T comparable] struct {
	deque.Deque[T]
	owner int
	id    int64
}

// NewDFD builds a DFDeques(K) policy for p workers. less is the 1DF
// priority order (called under the R spine; it must take no lock); seed
// derives each worker's private victim-selection stream (WorkerSeed).
func NewDFD[T comparable](p int, k int64, less func(a, b T) bool, seed int64) *DFD[T] {
	if p < 1 {
		panic("policy: DFD needs at least one worker")
	}
	return &DFD[T]{
		p:     p,
		less:  less,
		k:     k,
		quota: NewQuota(p),
		lanes: make([]dfdLane[T], p),
		seed:  seed,
	}
}

// NewSerialDFD builds the DFDeques(K) policy the machine simulator drives,
// one event at a time. It differs from NewDFD's in one rule: the §4.1 cost
// model puts the steal that follows a give-up in the next steal round, so
// a give-up here only releases the deque, and the simulator steals through
// BeginRound and StealFrom, which draw the victim from its own rng.
func NewSerialDFD[T comparable](p int, k int64, less func(a, b T) bool) *DFD[T] {
	d := NewDFD(p, k, less, 0)
	d.serial = true
	return d
}

// WorkerSeed derives worker w's private RNG seed from the run seed with a
// splitmix64-style mixer, so per-worker streams are decorrelated while the
// whole run stays a pure function of one seed.
func WorkerSeed(seed int64, w int) int64 {
	z := uint64(seed) + uint64(w+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// rng returns worker w's victim-selection stream, seeding it on first use.
// Only worker w may call it.
func (d *DFD[T]) rng(w int) *rand.Rand {
	ln := &d.lanes[w]
	if ln.rng == nil {
		ln.rng = rand.New(rand.NewSource(WorkerSeed(d.seed, w)))
	}
	return ln.rng
}

// Name implements Policy.
func (d *DFD[T]) Name() string { return "DFDeques" }

// Threshold implements Policy.
func (d *DFD[T]) Threshold() int64 { return d.k }

// Seed implements Policy: the root gets a fresh, unowned deque at the left
// end of R, ready to be stolen by the first idle worker.
func (d *DFD[T]) Seed(t T) {
	d.lock()
	d.publish(-1, 0, 0, t)
}

// Inject implements Policy: the thread gets a new deque at the right end
// of R — O(1), no scan, no priority comparison. A submitted job root is
// minted at the back of the order, so that is its Lemma 3.1 position; a
// canceled job's swept thread only needs a dispatch to die.
func (d *DFD[T]) Inject(t T) {
	d.lock()
	d.publish(-1, len(d.r), 1, t)
}

// ForkCont implements Policy: the parent keeps running inline and the
// child — the paper's pushed parent, lower in priority than everything
// forked after it — goes on top of the owned deque. PopBottom therefore
// still takes the deque's lowest-priority, coarsest thread (§3.3). Quota
// is untouched: it spans steals, not forks.
func (d *DFD[T]) ForkCont(w int, parent, child T) {
	dq := d.ownDeque(w)
	d.traceFork(w, rtrace.BurstForkPush, parent, child, dq.id)
	d.pushTop(dq, child)
}

// ownDeque returns worker w's deque, which it must own.
func (d *DFD[T]) ownDeque(w int) *rdeque[T] {
	dq := d.lanes[w].own
	if dq == nil {
		panic("policy: push without an owned deque")
	}
	return dq
}

// pushTop pushes x onto dq, its caller's own deque (the fork and give-up
// path). Entirely nonblocking: a single owner-side PushTop, no mutex in
// any state. The caller records the push first, or holds the spine until
// it has — a thief can only steal x afterwards, so the steal's event
// sequences after it.
func (d *DFD[T]) pushTop(dq *rdeque[T], x T) {
	dq.PushTop(x)
	d.ready.Add(1)
}

// JoinPop implements Policy: claim child for an inline join iff it is
// still the top of w's own deque — no thief stole it and no woken thread
// was pushed above it. The check and the pop share the deque's one
// linearization point (PopTopIf delegates the contested last-item case to
// PopTop's conflict CAS, so a racing bottom-steal of a single-item deque
// can never double-claim the thread). A miss leaves R untouched: unlike
// Next, an empty deque is NOT retired here, because the caller is still
// running and will push or pop again.
func (d *DFD[T]) JoinPop(w int, parent, child T) bool {
	ln := &d.lanes[w]
	dq := ln.own
	if dq == nil || !dq.PopTopIf(child) {
		return false
	}
	d.traceThreads(w, rtrace.BurstJoinInline, child, parent, dq.id)
	d.ready.Add(-1)
	ln.local.Add(1)
	return true
}

// Charge implements Policy.
func (d *DFD[T]) Charge(w int, n int64) bool { return d.quota.Charge(w, n, d.k) }

// Credit implements Policy.
func (d *DFD[T]) Credit(w int, n int64) { d.quota.Credit(w, n, d.k) }

// Preempt implements Policy: the preempted thread goes back on top of w's
// deque, which is then given up — left in R, unowned and stealable — and
// w steals with a fresh quota (§3.3, "memory quota exhausted"). All three
// are one spine section (giveUpSteal), recorded at its end as one burst
// for the veto, the turn to stealing, the republish, the release and the
// failed redraws (rtrace.BurstGiveUp, BurstPromoteGiveUp), and one for
// the steal; the next Acquire(w) reports how the steal went.
func (d *DFD[T]) Preempt(w int, t T, n int64, promoted bool) {
	lead := rtrace.BurstGiveUp
	if promoted {
		lead = rtrace.BurstPromoteGiveUp
	}
	d.giveUpSteal(w, lead, t, true, n)
}

// giveUpRedraws bounds giveUpSteal's redraws: each costs a random number,
// not a lock, and with R shorter than p a single draw misses R with
// probability 1 - len(R)/p — every second give-up of a chain on two workers,
// and as often when the other worker's deque is in R, drained.
const giveUpRedraws = 3

// giveUpSteal republishes x on w's deque if push, releases the deque —
// it stays in R, unowned and stealable, or is deleted if empty — and
// makes the steal attempt that §3.3 has follow, in one exclusive spine
// section instead of two (plus a screening read), remembering the
// outcome, possibly a stolen thread with w owning its new deque, for the
// Acquire(w) the engine calls next. The serial policy stops after the
// release: its steal belongs to the next round.
//
// The release and the steal stay two linearization points, adjacent in
// the spine's order: every other membership change falls before both or
// after both, so R passes through the same states as under a give-up then
// a steal with nothing scheduled in between, and Lemma 3.1 cannot tell
// the difference. No screening first: the released deque is in R and
// non-empty, so the section would be taken anyway. Inside it, a draw that
// names a position R does not have, or an empty deque (another worker's,
// which steal's screen would pass over without a section), is a failed
// attempt, counted like steal's, and is redrawn in place, at most
// giveUpRedraws times; a non-empty victim is one attempt, as in steal. w
// need not own a deque unless push (then this is steal with its screen
// under the spine).
//
// Nothing the section did can be seen before it ends, so it is recorded
// at its end: lead — a quota burst, carrying x and the vetoed n bytes, or
// BurstDummyGiveUp after a dummy — with the release and the failed
// redraws, then the steal's burst (take). A dummy's give-up with no
// joiner to republish records BurstDummyRelease or BurstDummyRetire.
func (d *DFD[T]) giveUpSteal(w int, lead rtrace.Kind, x T, push bool, n int64) {
	ln := &d.lanes[w]
	dq := ln.own
	if push {
		dq = d.ownDeque(w)
	}
	d.lock()
	defer d.unlock()
	var id int64
	if dq != nil {
		if push {
			d.pushTop(dq, x)
		}
		id = dq.id
		if retired := d.release(w, dq); !push {
			lead = rtrace.BurstDummyRelease
			if retired {
				lead = rtrace.BurstDummyRetire
			}
		}
	}
	if d.serial {
		d.traceGiveUp(w, lead, x, n, id, 0)
		return
	}
	c, k := 0, 0
	for ; k <= giveUpRedraws; k++ {
		if c = d.rng(w).Intn(d.p); c < len(d.r) && !d.r[c].Empty() {
			break
		}
	}
	if k > 0 {
		ln.failed.Add(int64(k))
	}
	d.traceGiveUp(w, lead, x, n, id, k)
	a := attempt[T]{made: true}
	if k <= giveUpRedraws {
		a.x, a.ok = d.take(w, c, false, rtrace.BurstGiveUpSteal)
	}
	ln.tried = a
}

// traceGiveUp records a give-up's lead burst when a probe is attached:
// x's republish if lead carries one, the release of deque id and the k
// failed redraws. Without a deque (id 0) there is nothing to release: the
// turn to stealing is a plain record and the redraws a burst of misses.
func (d *DFD[T]) traceGiveUp(w int, lead rtrace.Kind, x T, n, id int64, k int) {
	if d.probe != nil {
		d.recordGiveUp(w, lead, x, n, id, k)
	}
}

func (d *DFD[T]) recordGiveUp(w int, lead rtrace.Kind, x T, n, id int64, k int) {
	switch {
	case id == 0:
		d.probe.Event(w, rtrace.EvIdle, 0, 0, 0)
		if k > 0 {
			d.probe.Event(w, rtrace.BurstMisses, 0, 0, int64(k-1))
		}
	case lead == rtrace.BurstDummyRelease || lead == rtrace.BurstDummyRetire:
		d.probe.Event(w, lead, 0, 0, id<<3|int64(k))
	default:
		d.probe.Event(w, lead, d.tidOf(x), n, id<<3|int64(k))
	}
}

// release is the give-up proper; the caller holds the spine exclusively
// and dq is w's deque. It reports whether dq was empty and left R. The
// emptiness read is stable: thieves pop bottoms only inside a spine-held
// section, and the one goroutine that pushes without the spine — the
// owner — is the caller itself. The caller records it.
func (d *DFD[T]) release(w int, dq *rdeque[T]) (retired bool) {
	d.lanes[w].own = nil
	if dq.Empty() {
		d.retire(dq)
		return true
	}
	dq.owner = -1
	return false
}

// Wake implements Policy: the woken thread gets a new deque at its
// priority position in R (§5's extension beyond the nested-parallel
// model), on behalf of the waking worker w. It compares t only against
// frozen tops — unowned deques and w's own, whose owner is the caller:
// other workers' deques are skipped, never peeked into — their owner may
// be popping and recycling the top this instant. Tops decrease left to
// right, so the first frozen top t outranks is the rightmost position
// consistent with Lemma 3.1, and rightward is the safe direction for the
// space bound.
func (d *DFD[T]) Wake(w int, t T) {
	d.lock()
	at := 0
	for ; at < len(d.r); at++ {
		if dq := d.r[at]; dq.owner == -1 || dq.owner == w {
			if top, ok := dq.PeekTop(); ok && d.less(t, top) {
				break
			}
		}
	}
	d.publish(w, at, 1, t)
}

// Next implements Policy: pop the top of w's deque. The non-empty case is
// a nonblocking owner-side PopTop (one CAS only when racing a thief for
// the last item); when the deque turns out empty it is deleted from R
// under the spine (only the owner adds items, and with the spine held no
// thief's insert-right can target it, so emptiness is stable once
// observed) and ok is false — the worker must steal next.
func (d *DFD[T]) Next(w int) (x T, ok bool) {
	ln := &d.lanes[w]
	dq := ln.own
	if dq == nil {
		return x, false
	}
	if x, ok = dq.PopTop(); ok {
		d.traceThread(w, rtrace.EvPop, x, dq.id, 0)
		d.ready.Add(-1)
		ln.local.Add(1)
		return x, true
	}
	// Empty: drop ownership and retire the deque. The own pointer is
	// cleared before the spine unlocks so no reference to the recycled
	// deque survives the critical section. An owned deque is always in R:
	// thieves retire or take over only unowned ones.
	d.lock()
	ln.own = nil
	d.trace(w, rtrace.EvDequeRetire, dq.id, 0, 0)
	d.retire(dq)
	d.unlock()
	return x, false
}

// Terminate implements Policy. After a dummy thread the worker must give
// up its deque and steal (§3.3); a woken parent is pushed first, in the
// give-up's section, so it stays stealable at its priority position, and
// ok is false even when the give-up's own steal attempt succeeded:
// Acquire hands that over. The section is recorded as one burst for the
// turn to stealing, the republish, the release and the failed redraws
// (rtrace.BurstDummyGiveUp; the dummy's complete, the engine's record
// ahead of it, read the clock), and one for the steal. Otherwise the
// woken parent is handed off directly (its deque is empty here for
// nested-parallel programs — Lemma 3.1), or the deque top runs next.
func (d *DFD[T]) Terminate(w int, woke T, hasWoke bool) (T, bool) {
	if ln := &d.lanes[w]; ln.giveUp {
		ln.giveUp = false
		d.giveUpSteal(w, rtrace.BurstDummyGiveUp, woke, hasWoke, 0)
		var zero T
		return zero, false
	}
	if hasWoke {
		return woke, true
	}
	return d.Next(w)
}

// Dummy implements Policy.
func (d *DFD[T]) Dummy(w int) { d.lanes[w].giveUp = true }

// Acquire implements Policy: one steal attempt (random deque among the
// leftmost p, pop its bottom) — the one w's give-up already made, if it
// has not been reported yet.
func (d *DFD[T]) Acquire(w int) (T, bool) {
	ln := &d.lanes[w]
	if a := ln.tried; a.made {
		ln.tried = attempt[T]{}
		return a.x, a.ok
	}
	return d.steal(w)
}

// Pause implements Policy: the hunt's failed screens not written yet go
// out as one burst.
func (d *DFD[T]) Pause(w int) { d.flushMisses(w) }

// maxMisses is the most failed screens one burst of misses holds
// (rtrace.BurstMisses).
const maxMisses = 256

// flushMisses records worker w's untraced failed screens as one burst.
func (d *DFD[T]) flushMisses(w int) {
	if ln := &d.lanes[w]; ln.misses > 0 {
		d.trace(w, rtrace.BurstMisses, 0, 0, ln.misses-1)
		ln.misses = 0
	}
}

// steal performs one steal attempt for worker w: pick a uniformly random
// deque among the leftmost p in R, pop its bottom thread, and become
// owner of a new deque placed immediately to the victim's right.
//
// The attempt runs in two phases. A screening phase under the read lock
// checks the pick exists and is non-empty; the common failed
// attempt — an out-of-range pick or a provably empty victim — costs no
// exclusive spine acquisition at all, so a storm of unlucky thieves never
// serializes the owners' membership changes. Only a promising pick takes
// the spine exclusively and re-validates (take). A failed screen is
// counted, not recorded: the worker's failed screens are written as one
// burst ahead of its next steal, or when it pauses.
//
// ok is false if the attempt failed (nonexistent or empty victim, or the
// CAS lost a race). The worker must not own a deque.
func (d *DFD[T]) steal(w int) (x T, ok bool) {
	ln := &d.lanes[w]
	if ln.own != nil {
		panic("policy: steal while owning a deque")
	}
	c := d.rng(w).Intn(d.p)
	d.mu.RLock()
	promising := c < len(d.r) && d.r[c].Len() > 0
	d.mu.RUnlock()
	if promising {
		d.lock()
		if c < len(d.r) { // else R shrank between the phases
			x, ok = d.take(w, c, false, rtrace.BurstSteal)
			d.unlock()
			return x, ok
		}
		d.unlock()
	}
	ln.failed.Add(1)
	if ln.misses++; ln.misses == maxMisses {
		d.flushMisses(w)
	}
	return x, false
}

// take is the steal proper, on position c of R, which must exist; the
// caller holds the spine exclusively and w owns no deque. It counts its
// own outcome and, on success, refills w's quota. Pop-bottom and
// insert-right — or, when the pop drained an unowned victim, its takeover
// in place — form the steal's single linearization point, which is what
// keeps Lemma 3.1's left-to-right order intact when two thieves race on
// one victim. The pop itself is the lock-free bottom-word CAS — the
// victim's owner is never blocked, not even for the duration of this
// critical section, and can race the thief for the last item (the deque's
// conflict arbitration decides; a CAS loss here is just a failed attempt).
// fromTop is StealFrom's ablation: pop the victim's top instead and place
// the thief's deque to the victim's left.
//
// burst is the steal's record, rtrace.BurstSteal or BurstGiveUpSteal,
// each followed by its takeover kind. It ends with x's dispatch, since
// nothing about x can be observed between the steal and w running it,
// and it follows w's failed screens not written yet.
func (d *DFD[T]) take(w, c int, fromTop bool, burst rtrace.Kind) (x T, ok bool) {
	ln := &d.lanes[w]
	victim := d.r[c]
	at := c + 1
	if fromTop {
		x, ok = victim.PopTop()
		at = c
	} else {
		x, ok = victim.PopBottom()
	}
	if !ok {
		d.trace(w, rtrace.EvStealAttempt, victim.id, 0, 0)
		ln.failed.Add(1)
		return x, false
	}
	d.ready.Add(-1)
	d.steals.Add(1)
	old, nd := victim.id, victim
	if victim.owner == -1 && victim.Empty() {
		// An unowned victim this steal drained becomes the thief's deque
		// in place, under a fresh ID: the new deque would sit next to it,
		// and it would be retired, so R's order is the same either way.
		// With the spine held no other thief can touch it, and owner == -1
		// means no owner-side op can be in flight, so the emptiness read is
		// stable. The records are the ones a fresh deque and the victim's
		// retirement make.
		d.deqID++
		nd.id = d.deqID
		burst++ // the takeover kind
	} else {
		nd = d.takeFree()
		d.place(at, nd)
		d.noteR()
	}
	nd.owner = w
	d.flushMisses(w)
	d.traceThread(w, burst, x, old, nd.id)
	ln.own = nd
	d.quota.Reset(w, d.k)
	return x, true
}

// BeginRound starts a new steal round of the simulator's cost model with
// memory threshold k (the §7 adaptive controller moves K between rounds):
// every deque becomes stealable again (§4.1 allows at most one successful
// steal per deque per timestep, arbitrated by StealFrom). A serial-engine
// entry, like StealFrom: the caller serializes every call on the policy.
func (d *DFD[T]) BeginRound(k int64) {
	d.k = k
	d.robbed = d.robbed[:0]
}

// StealFrom is the simulator's arbitrated steal, a serial-engine entry:
// the caller names the victim as an index c from the left end of R (the
// window, and the randomness, are in the caller's hands), and it fails if
// that deque does not exist, is empty, or was already robbed since
// BeginRound. Otherwise it is take. fromTop is the steal-from-top
// ablation: the thief takes the victim's newest thread instead of its
// bottom one, and its new deque goes to the victim's left to keep R
// roughly ordered. The screening reads R without the spine, which only a
// serial caller may; the steal itself takes it, as take requires. The
// worker must not own a deque.
func (d *DFD[T]) StealFrom(w, c int, fromTop bool) (x T, ok bool) {
	if d.lanes[w].own != nil {
		panic("policy: StealFrom while owning a deque")
	}
	if c >= len(d.r) {
		return x, false
	}
	victim := d.r[c]
	if victim.Empty() || slices.Contains(d.robbed, victim.id) {
		return x, false
	}
	d.robbed = append(d.robbed, victim.id)
	d.lock()
	x, ok = d.take(w, c, fromTop, rtrace.BurstSteal)
	d.unlock()
	return x, ok
}

// Deques returns the current number of deques in R: the victim window of
// the simulator's full-window ablation.
func (d *DFD[T]) Deques() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.r)
}

// HasWork implements Policy: a single atomic load — idle workers poll it
// without taking any lock.
func (d *DFD[T]) HasWork() bool { return d.ready.Load() > 0 }

// Stats implements Policy.
func (d *DFD[T]) Stats() Stats {
	s := Stats{
		Steals:     d.steals.Load(),
		LockOps:    d.lockOps.Load(),
		LockWaitNs: d.lockWaitNs.Load(),
		MaxDeques:  int(d.maxR.Load()),
	}
	for w := range d.lanes {
		s.FailedSteals += d.lanes[w].failed.Load()
		s.LocalDispatches += d.lanes[w].local.Load()
	}
	return s
}

// takeFree returns an unowned reusable deque with a fresh ID. The caller
// must hold the spine exclusively and insert the deque into R before
// releasing it.
func (d *DFD[T]) takeFree() *rdeque[T] {
	var dq *rdeque[T]
	if n := len(d.free); n > 0 {
		dq = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		dq = new(rdeque[T])
	}
	d.deqID++
	dq.owner, dq.id = -1, d.deqID
	return dq
}

// retire deletes dq from R and recycles it: its owner's deque, empty,
// the own pointer already cleared. The caller must hold the spine
// exclusively, so no thief is between its read of dq and its CAS, and
// records the retirement.
func (d *DFD[T]) retire(dq *rdeque[T]) {
	i := slices.Index(d.r, dq)
	d.r = slices.Delete(d.r, i, i+1)
	dq.Reset()
	d.free = append(d.free, dq)
}

// place inserts nd at index i of R and returns the ID of its left
// neighbour, -1 at the left end. The caller holds the spine exclusively.
func (d *DFD[T]) place(i int, nd *rdeque[T]) (after int64) {
	d.r = slices.Insert(d.r, i, nd)
	if i == 0 {
		return -1
	}
	return d.r[i-1].id
}

// publish puts x alone in a fresh unowned deque at index i of R and
// releases the spine, which the caller must hold exclusively: the one way
// a thread enters R from outside a worker's own deque. Seed, Inject and
// Wake differ only in i and in midRun, the EvDequeCreate flag.
func (d *DFD[T]) publish(w, i int, midRun int64, x T) {
	nd := d.takeFree()
	d.trace(w, rtrace.EvDequeCreate, nd.id, d.place(i, nd), midRun)
	d.traceThread(w, rtrace.EvPush, x, nd.id, 0)
	nd.PushTop(x)
	d.noteR()
	// Raised before the spine unlocks, or a thief that takes x first drives
	// the count to -1 and HasWork reads false while other work is published.
	d.ready.Add(1)
	d.unlock()
}

// noteR records the R-length high-water mark. The caller must hold the
// spine exclusively, so it is maxR's only writer.
func (d *DFD[T]) noteR() {
	if n := int64(len(d.r)); n > d.maxR.Load() {
		d.maxR.Store(n)
	}
}

// CheckInvariants verifies Lemma 3.1 over R from one Items snapshot per
// deque: (1) every deque is priority-sorted top to bottom, (2) a running
// thread outranks its worker's deque, (3) deques are ordered left to right
// by decreasing priority; and no deque in R is both empty and unowned.
// curr gives each worker's running thread (ok=false when idle). The spine
// freezes R's membership, every unowned deque and all thieves, but
// nothing can freeze a running OWNER: the check is exact when owners are
// quiescent or push-only (a pushed continuation ranks above its own
// deque's previous top but below everything in deques to the left);
// concurrent owner POPS can yield transient false positives, so call it
// from serial engines, tests and quiescent moments.
func (d *DFD[T]) CheckInvariants(curr func(w int) (T, bool)) error {
	d.lock()
	defer d.unlock()
	snap := make([][]T, len(d.r)) // bottom to top, per deque of R
	for i := range snap {
		items := d.r[i].Items()
		for j := 1; j < len(items); j++ {
			if !d.less(items[j], items[j-1]) {
				return fmt.Errorf("policy: lemma 3.1(1): deque %d unsorted at %d", i, j)
			}
		}
		snap[i] = items
	}
	for w := 0; w < d.p; w++ {
		dq := d.lanes[w].own
		if dq == nil {
			continue
		}
		x, running := curr(w)
		if !running {
			continue
		}
		if items := snap[slices.Index(d.r, dq)]; len(items) > 0 && !d.less(x, items[len(items)-1]) {
			return fmt.Errorf("policy: lemma 3.1(2): worker %d below its deque top", w)
		}
	}
	var havePrev bool
	var prevBottom T
	for i, items := range snap {
		if len(items) == 0 {
			// Every operation retires a deque it empties unless the owner
			// keeps it; an empty unowned deque would be unstealable dead
			// weight in R.
			if d.r[i].owner == -1 {
				return fmt.Errorf("policy: empty deque %d in R is unowned", i)
			}
			continue
		}
		if havePrev && !d.less(prevBottom, items[len(items)-1]) {
			return fmt.Errorf("policy: lemma 3.1(3): deque %d out of order", i)
		}
		prevBottom, havePrev = items[0], true
	}
	return nil
}
