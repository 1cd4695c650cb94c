package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dfdeques/internal/deque"
	"dfdeques/internal/rtrace"
)

// SharedPool is the DFDeques ready pool: the ordered deque list R plus the
// owner/thief protocol of §3.2–3.3, synchronized fine-grained so the
// runtime's workers drive it concurrently, while the simulator drives the
// same code serially through BeginRound and StealFrom.
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
//     Steal (pop-bottom + insert-right must be one linearization point, or
//     two thieves hitting one victim could insert their deques in inverted
//     priority order), a give-up together with the steal that follows it
//     (GiveUpSteal), deque deletion, and publish (Seed, Append and the
//     woken-thread insert). The read side covers cheap observations —
//     including Steal's screening phase, which rejects an empty victim via
//     Len without ever taking the spine exclusively. The spine serializes
//     thieves against each other and against membership changes, never
//     against an owner's push/pop: the steady-state owner hot path
//     acquires zero mutexes.
//   - The exclusive spine FREEZES unowned deques (owner == -1): no owner
//     pushes and thieves are excluded, so the contents are exact and every
//     item is a ready thread. Placement in R compares only against those;
//     nothing but a thief's PopBottom CAS reads a deque its owner is working.
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
// linearizes R's structural history.
//
// The spine is a leaf lock: the less callback runs under it and takes
// none (internal/grt reads the order off its fork tree). less is called
// only by PushWoken — on frozen tops and the woken thread, both live —
// and by CheckInvariants. All pool methods but the serial-engine entries
// BeginRound and StealFrom are safe for concurrent use; methods taking a
// worker index w are worker w's alone.
type SharedPool[T comparable] struct {
	p    int
	less func(a, b T) bool

	// r is R, left (highest priority) to right, guarded by listMu. Steals
	// index it in O(1); a membership change shifts the tail, O(len R),
	// which stays near p for small K and never passes p for K = ∞ (§3.3).
	listMu sync.RWMutex
	r      []*rdeque[T]
	own    []atomic.Pointer[rdeque[T]] // own[w] written only by worker w

	// rngs[w] is worker w's private victim-selection stream, derived
	// deterministically from (run seed, w) by WorkerSeed: same-seed runs
	// draw the same victim sequences per worker, and the steal path never
	// serializes on a shared generator. Seeded lazily at w's first steal
	// (each slot is touched only by its worker): math/rand's seeding fills
	// a 607-word feedback register, and paying that p times up front
	// dominates short runs' construction cost.
	rngs []*rand.Rand
	seed int64

	// free is the deque freelist, guarded by the spine lock: deques only
	// leave R under it, and only then may they be recycled.
	free []*rdeque[T]

	// Tracing (nil probe: disabled). deqID is the last deque ID drawn,
	// advanced under the spine lock, where every deque gets its ID: a new
	// or recycled one in takeFree, a victim taken over in take.
	probe rtrace.Probe
	tidOf func(T) int64
	deqID int64

	ready   atomic.Int64 // stealable threads across all deques in R
	maxR    atomic.Int64
	steals  atomic.Int64
	failed  atomic.Int64
	local   atomic.Int64
	listOps atomic.Int64 // exclusive acquisitions of the R spine lock

	// timeWait makes lockList time each exclusive acquisition's wait into
	// listWaitNs (MeasureLockWait; off by default — two clock reads per
	// steal would distort what the counter exists to explain).
	timeWait   bool
	listWaitNs atomic.Int64

	// robbed holds the IDs of the deques StealFrom took from since the last
	// BeginRound. IDs, not pointers: a victim taken over in place, or a
	// deque retired and recycled within one round, is a different deque
	// under a fresh ID.
	robbed []int64
}

// rdeque is a member of R: one processor's deque plus the pool's
// bookkeeping for it, which the deque itself never reads. owner is the
// worker that owns it, or -1; it is read and written under the spine. id
// names the deque in traces, and it is not fixed for the deque's life: the
// pool draws a fresh one whenever the deque begins a new life in R —
// recycled from the freelist, or taken over in place by the thief that
// drained it. id is written only under the exclusive spine, while the
// deque is unowned or out of R, and read by its owner after the hand-off
// that made it the owner, or under the spine.
type rdeque[T comparable] struct {
	deque.Deque[T]
	owner int
	id    int64
}

// NewSharedPool builds a pool for p workers. less reports whether a has
// higher 1DF priority than b; it places woken threads (PushWoken) and
// checks the order (CheckInvariants), and is invoked with the spine lock
// held, so it must not block on anything a spine holder waits for. seed
// determines every worker's private victim-selection stream.
func NewSharedPool[T comparable](p int, less func(a, b T) bool, seed int64) *SharedPool[T] {
	if p < 1 {
		panic("core: pool needs at least one worker")
	}
	return &SharedPool[T]{
		p:    p,
		less: less,
		own:  make([]atomic.Pointer[rdeque[T]], p),
		rngs: make([]*rand.Rand, p),
		seed: seed,
	}
}

// rng returns worker w's private victim-selection stream, seeding it on
// first use. Only worker w may call it.
func (pl *SharedPool[T]) rng(w int) *rand.Rand {
	r := pl.rngs[w]
	if r == nil {
		r = rand.New(rand.NewSource(WorkerSeed(pl.seed, w)))
		pl.rngs[w] = r
	}
	return r
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

// Instrument attaches a trace probe; tid extracts a thread's stable id for
// the event payloads. Call before the pool is shared (before Seed).
func (pl *SharedPool[T]) Instrument(p rtrace.Probe, tid func(T) int64) {
	pl.probe = p
	pl.tidOf = tid
}

// trace records one event when a probe is attached, under the ordering
// discipline described on SharedPool (see internal/rtrace).
func (pl *SharedPool[T]) trace(w int, k rtrace.Kind, a, b, c int64) {
	if pl.probe != nil {
		pl.probe.Event(w, k, a, b, c)
	}
}

// MeasureLockWait turns on timing of how long callers wait to acquire the
// spine exclusively (ListLockWaitNs). Call before the pool is shared.
func (pl *SharedPool[T]) MeasureLockWait() { pl.timeWait = true }

// lockList acquires the spine exclusively, counting the acquisition — and,
// when measurement is on, the time spent waiting for it — for the
// contention stats.
func (pl *SharedPool[T]) lockList() {
	if pl.timeWait {
		start := time.Now()
		pl.listMu.Lock()
		pl.listWaitNs.Add(time.Since(start).Nanoseconds())
	} else {
		pl.listMu.Lock()
	}
	pl.listOps.Add(1)
}

// takeFree returns an unowned reusable deque with a fresh ID. The caller
// must hold the spine lock exclusively and insert the deque into R before
// releasing it.
func (pl *SharedPool[T]) takeFree() *rdeque[T] {
	var d *rdeque[T]
	if n := len(pl.free); n > 0 {
		d = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
	} else {
		d = new(rdeque[T])
	}
	pl.deqID++
	d.owner, d.id = -1, pl.deqID
	return d
}

// retire deletes d from R and recycles it: worker w's own deque, empty,
// its own pointer already cleared. The caller must hold the spine lock
// exclusively, so no thief is between its read of d and its CAS.
func (pl *SharedPool[T]) retire(w int, d *rdeque[T]) {
	i := slices.Index(pl.r, d)
	pl.r = slices.Delete(pl.r, i, i+1)
	pl.trace(w, rtrace.EvDequeRetire, d.id, 0, 0)
	d.Reset()
	pl.free = append(pl.free, d)
}

// place inserts nd at index i of R and returns the ID of its left
// neighbour, -1 at the left end. The caller holds the spine exclusively.
func (pl *SharedPool[T]) place(i int, nd *rdeque[T]) (after int64) {
	pl.r = slices.Insert(pl.r, i, nd)
	if i == 0 {
		return -1
	}
	return pl.r[i-1].id
}

// publish puts x alone in a fresh unowned deque at index i of R and
// releases the spine, which the caller must hold exclusively: the one way
// a thread enters R from outside a worker's own deque. Seed, Append and
// PushWoken differ only in i and in midRun, the EvDequeCreate flag.
func (pl *SharedPool[T]) publish(w, i int, midRun int64, x T) {
	nd := pl.takeFree()
	pl.trace(w, rtrace.EvDequeCreate, nd.id, pl.place(i, nd), midRun)
	if pl.tidOf != nil {
		pl.trace(w, rtrace.EvPush, pl.tidOf(x), nd.id, 0)
	}
	nd.PushTop(x)
	pl.noteR()
	// Raised before the spine unlocks, or a thief that takes x first drives
	// the count to -1 and HasWork reads false while other work is published.
	pl.ready.Add(1)
	pl.listMu.Unlock()
}

// Seed places the root thread into a fresh, unowned deque at the left end
// of R, ready to be stolen by the first idle worker.
func (pl *SharedPool[T]) Seed(root T) {
	pl.lockList()
	pl.publish(-1, 0, 0, root)
}

// Append places x into a fresh, unowned deque at the right end of R, from
// outside any worker: O(1), no scan, no less. For a thread that ranks
// below everything in R (a job root minted at the back of the priority
// order) or whose position is moot (a canceled job's swept thread).
func (pl *SharedPool[T]) Append(x T) {
	pl.lockList()
	pl.publish(-1, len(pl.r), 1, x)
}

// PushOwn pushes x onto worker w's deque top (the fork and preemption
// path). Entirely nonblocking: a single owner-side PushTop, no mutex in
// any state. The worker must own a deque. The trace is recorded before
// the push publishes x — a thief can only steal x afterwards, so the
// steal's event sequences after this one.
func (pl *SharedPool[T]) PushOwn(w int, x T) {
	d := pl.own[w].Load()
	if d == nil {
		panic("core: PushOwn without an owned deque")
	}
	if pl.tidOf != nil {
		pl.trace(w, rtrace.EvPush, pl.tidOf(x), d.id, 0)
	}
	d.PushTop(x)
	pl.ready.Add(1)
}

// PopOwn pops the top of w's deque. The non-empty case is a nonblocking
// owner-side PopTop (one CAS only when racing a thief for the last item);
// when the deque turns out empty it is deleted from R under the spine
// lock (only the owner adds items, and with the spine held no thief's
// insert-right can target it, so emptiness is stable once observed) and
// ok is false — the worker must steal next.
func (pl *SharedPool[T]) PopOwn(w int) (x T, ok bool) {
	d := pl.own[w].Load()
	if d == nil {
		return x, false
	}
	x, ok = d.PopTop()
	if ok {
		if pl.tidOf != nil {
			pl.trace(w, rtrace.EvPop, pl.tidOf(x), d.id, 0)
		}
		pl.ready.Add(-1)
		pl.local.Add(1)
		return x, true
	}
	// Empty: drop ownership and retire the deque. The own pointer is
	// cleared before the spine unlocks so no reference to the recycled
	// deque survives the critical section. An owned deque is always in R:
	// thieves retire or take over only unowned ones.
	pl.lockList()
	pl.own[w].Store(nil)
	pl.retire(w, d)
	pl.listMu.Unlock()
	return x, false
}

// PopOwnIf pops the top of w's deque only if it is exactly want,
// reporting whether it did. This is the continuation engine's inline-join
// claim: the parent may run its forked child in place of parking only
// when that child is still the top of the parent's own deque — untouched
// by thieves and undisplaced by woken threads — and the check and the pop
// share the deque's one linearization point (PopTopIf delegates the
// contested last-item case to PopTop's conflict CAS, so a racing
// bottom-steal of a single-item deque can never double-claim the thread).
// A miss leaves the pool untouched: unlike PopOwn, an empty deque is NOT
// retired here, because the caller is still running and will push or pop
// again.
func (pl *SharedPool[T]) PopOwnIf(w int, want T) bool {
	d := pl.own[w].Load()
	if d == nil {
		return false
	}
	ok := d.PopTopIf(want)
	if ok {
		if pl.tidOf != nil {
			pl.trace(w, rtrace.EvPop, pl.tidOf(want), d.id, 0)
		}
		pl.ready.Add(-1)
		pl.local.Add(1)
	}
	return ok
}

// GiveUp releases ownership of w's deque without popping (the
// quota-exhaustion and dummy-thread paths): the deque stays in R, unowned
// and stealable. An empty deque is deleted instead. The runtime's give-ups
// go through GiveUpSteal, which is this and the steal that follows in one
// spine section.
func (pl *SharedPool[T]) GiveUp(w int) {
	d := pl.own[w].Load()
	if d == nil {
		return
	}
	pl.lockList()
	pl.release(w, d)
	pl.listMu.Unlock()
}

// release is the give-up proper; the caller holds the spine exclusively and
// d is w's deque. The emptiness read is stable: thieves pop bottoms only
// inside a spine-held section, and the one goroutine that pushes without
// the spine — the owner — is the caller itself.
func (pl *SharedPool[T]) release(w int, d *rdeque[T]) {
	pl.own[w].Store(nil)
	if d.Empty() {
		pl.retire(w, d)
	} else {
		d.owner = -1
		pl.trace(w, rtrace.EvDequeRelease, d.id, 0, 0)
	}
}

// giveUpRedraws bounds GiveUpSteal's redraws: each costs a random number,
// not a lock, and with R shorter than p a single draw misses R with
// probability 1 - len(R)/p — every second give-up of a chain on two workers,
// and as often when the other worker's deque is in R, drained.
const giveUpRedraws = 3

// GiveUpSteal is GiveUp and the steal attempt that §3.3 has follow it, in
// one exclusive spine section instead of two (plus a screening read). The
// release and the steal stay two linearization points, adjacent in the
// spine's order: every other membership change falls before both or after
// both, so R passes through the same states as under GiveUp then Steal with
// nothing scheduled in between, and Lemma 3.1 cannot tell the difference.
// No screening first: the released deque is in R and non-empty, so the
// section would be taken anyway. Inside it, a draw that names a position R
// does not have, or an empty deque (another worker's, which Steal's screen
// would pass over without a section), is a failed attempt, counted and
// traced like Steal's, and is redrawn in place, at most giveUpRedraws
// times; a non-empty victim is one attempt, as in Steal. w need not own a
// deque (then this is Steal with its screen under the spine).
func (pl *SharedPool[T]) GiveUpSteal(w int) (x T, ok bool) {
	d := pl.own[w].Load()
	pl.lockList()
	defer pl.listMu.Unlock()
	if d != nil {
		pl.release(w, d)
	}
	for i := 0; i <= giveUpRedraws; i++ {
		if c := pl.rng(w).Intn(pl.p); c < len(pl.r) && !pl.r[c].Empty() {
			return pl.take(w, c, false)
		}
		pl.trace(w, rtrace.EvStealAttempt, -1, 0, 0)
		pl.failed.Add(1)
	}
	return x, false
}

// Steal performs one steal attempt for worker w: pick a uniformly random
// deque among the leftmost p in R, pop its bottom thread, and become
// owner of a new deque placed immediately to the victim's right.
//
// The attempt runs in two phases. A screening phase under the read lock
// checks the pick exists and is non-empty; the common failed
// attempt — an out-of-range pick or a provably empty victim — costs no
// exclusive spine acquisition at all, so a storm of unlucky thieves never
// serializes the owners' membership changes. Only a promising pick takes
// the spine exclusively and re-validates (take).
//
// ok is false if the attempt failed (nonexistent or empty victim, or the
// CAS lost a race). The worker must not own a deque.
func (pl *SharedPool[T]) Steal(w int) (x T, ok bool) {
	if pl.own[w].Load() != nil {
		panic("core: Steal while owning a deque")
	}
	c := pl.rng(w).Intn(pl.p)
	pl.listMu.RLock()
	promising := c < len(pl.r) && pl.r[c].Len() > 0
	pl.listMu.RUnlock()
	if promising {
		pl.lockList()
		if c < len(pl.r) { // else R shrank between the phases
			x, ok = pl.take(w, c, false)
			pl.listMu.Unlock()
			return x, ok
		}
		pl.listMu.Unlock()
	}
	pl.trace(w, rtrace.EvStealAttempt, -1, 0, 0)
	pl.failed.Add(1)
	return x, false
}

// take is the steal proper, on position c of R, which must exist; the
// caller holds the spine exclusively and w owns no deque. It counts its
// own outcome (the counters share ready's cache line). Pop-bottom and
// insert-right — or, when the pop drained an unowned victim, its takeover
// in place — form the steal's single linearization point, which is what
// keeps Lemma 3.1's left-to-right order intact when two thieves race on
// one victim. The pop itself is the lock-free bottom-word CAS — the
// victim's owner is never blocked, not even for the duration of this
// critical section, and can race the thief for the last item (the deque's
// conflict arbitration decides; a CAS loss here is just a failed attempt).
// fromTop is StealFrom's ablation: pop the victim's top instead and place
// the thief's deque to the victim's left.
func (pl *SharedPool[T]) take(w, c int, fromTop bool) (x T, ok bool) {
	victim := pl.r[c]
	pl.trace(w, rtrace.EvStealAttempt, victim.id, 0, 0)
	at := c + 1
	if fromTop {
		x, ok = victim.PopTop()
		at = c
	} else {
		x, ok = victim.PopBottom()
	}
	if !ok {
		pl.failed.Add(1)
		return x, false
	}
	pl.ready.Add(-1)
	pl.steals.Add(1)
	old, nd := victim.id, victim
	if victim.owner == -1 && victim.Empty() {
		// An unowned victim this steal drained becomes the thief's deque
		// in place, under a fresh ID: the new deque would sit next to it,
		// and it would be retired, so R's order is the same either way.
		// With the spine held no other thief can touch it, and owner == -1
		// means no owner-side op can be in flight, so the emptiness read is
		// stable. The records are the ones a fresh deque and the victim's
		// retirement make.
		pl.deqID++
		nd.id = pl.deqID
	} else {
		nd = pl.takeFree()
		pl.place(at, nd)
		pl.noteR()
	}
	nd.owner = w
	if pl.tidOf != nil {
		pl.trace(w, rtrace.EvSteal, pl.tidOf(x), old, nd.id)
	}
	if nd == victim {
		pl.trace(w, rtrace.EvDequeRetire, old, 0, 0)
	}
	pl.own[w].Store(nd)
	return x, true
}

// BeginRound starts a new steal round of the simulator's cost model: every
// deque becomes stealable again (§4.1 allows at most one successful steal
// per deque per timestep, arbitrated by StealFrom). A serial-engine entry,
// like StealFrom: the caller serializes every call on the pool.
func (pl *SharedPool[T]) BeginRound() { pl.robbed = pl.robbed[:0] }

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
func (pl *SharedPool[T]) StealFrom(w, c int, fromTop bool) (x T, ok bool) {
	if pl.own[w].Load() != nil {
		panic("core: StealFrom while owning a deque")
	}
	if c >= len(pl.r) {
		return x, false
	}
	victim := pl.r[c]
	if victim.Empty() || slices.Contains(pl.robbed, victim.id) {
		return x, false
	}
	pl.robbed = append(pl.robbed, victim.id)
	pl.lockList()
	x, ok = pl.take(w, c, fromTop)
	pl.listMu.Unlock()
	return x, ok
}

// PushWoken places a thread woken by a blocking synchronization into a
// new deque at its priority position in R (§5's extension beyond the
// nested-parallel model), on behalf of the waking worker w. It compares x
// only against frozen tops (see SharedPool); owned deques are skipped,
// never peeked into — their owner may be popping and recycling the top
// this instant. Tops decrease left to right, so the first frozen top x
// outranks is the rightmost position consistent with Lemma 3.1, and
// rightward is the safe direction for the space bound.
func (pl *SharedPool[T]) PushWoken(w int, x T) {
	pl.lockList()
	at := 0
	for ; at < len(pl.r); at++ {
		if d := pl.r[at]; d.owner == -1 {
			if top, ok := d.PeekTop(); ok && pl.less(x, top) {
				break
			}
		}
	}
	pl.publish(w, at, 1, x)
}

// HasWork reports whether any deque in R holds a stealable thread. It is
// a single atomic load — idle workers poll it without taking any lock.
func (pl *SharedPool[T]) HasWork() bool { return pl.ready.Load() > 0 }

// Owns reports whether worker w currently owns a deque.
func (pl *SharedPool[T]) Owns(w int) bool { return pl.own[w].Load() != nil }

// Deques returns the current number of deques in R.
func (pl *SharedPool[T]) Deques() int {
	pl.listMu.RLock()
	defer pl.listMu.RUnlock()
	return len(pl.r)
}

// MaxDeques returns the high-water mark of len(R).
func (pl *SharedPool[T]) MaxDeques() int { return int(pl.maxR.Load()) }

// Stats returns (successful steals, failed steal attempts, local
// dispatches).
func (pl *SharedPool[T]) Stats() (steals, failed, local int64) {
	return pl.steals.Load(), pl.failed.Load(), pl.local.Load()
}

// ListLockOps returns the number of exclusive spine-lock acquisitions.
func (pl *SharedPool[T]) ListLockOps() int64 { return pl.listOps.Load() }

// ListLockWaitNs returns the total time callers spent waiting to acquire
// the spine exclusively; 0 unless MeasureLockWait was called.
func (pl *SharedPool[T]) ListLockWaitNs() int64 { return pl.listWaitNs.Load() }

// noteR records the R-length high-water mark. The caller must hold the
// spine exclusively, so it is maxR's only writer.
func (pl *SharedPool[T]) noteR() {
	if n := int64(len(pl.r)); n > pl.maxR.Load() {
		pl.maxR.Store(n)
	}
}

// CheckInvariants verifies Lemma 3.1 over R from one Items snapshot per
// deque: (1) every deque is priority-sorted top to bottom, (2) a running
// thread outranks its worker's deque, (3) deques are ordered left to right
// by decreasing priority; and no deque in R is both empty and unowned.
// curr gives each worker's running thread (ok=false when idle). The spine
// lock freezes R's membership, every unowned deque and all thieves, but
// nothing can freeze a running OWNER: the check is exact when owners are
// quiescent or push-only (a pushed continuation ranks above its own
// deque's previous top but below everything in deques to the left);
// concurrent owner POPS can yield transient false positives, so call it
// from serial engines, tests and quiescent moments.
func (pl *SharedPool[T]) CheckInvariants(curr func(w int) (T, bool)) error {
	pl.lockList()
	defer pl.listMu.Unlock()
	snap := make([][]T, len(pl.r)) // bottom to top, per deque of R
	for i := range snap {
		items := pl.r[i].Items()
		for j := 1; j < len(items); j++ {
			if !pl.less(items[j], items[j-1]) {
				return fmt.Errorf("core: lemma 3.1(1): deque %d unsorted at %d", i, j)
			}
		}
		snap[i] = items
	}
	for w := 0; w < pl.p; w++ {
		d := pl.own[w].Load()
		if d == nil {
			continue
		}
		x, running := curr(w)
		if !running {
			continue
		}
		if items := snap[slices.Index(pl.r, d)]; len(items) > 0 && !pl.less(x, items[len(items)-1]) {
			return fmt.Errorf("core: lemma 3.1(2): worker %d below its deque top", w)
		}
	}
	var havePrev bool
	var prevBottom T
	for i, items := range snap {
		if len(items) == 0 {
			// Every operation retires a deque it empties unless the owner
			// keeps it; an empty unowned deque would be unstealable dead
			// weight in R.
			if pl.r[i].owner == -1 {
				return fmt.Errorf("core: empty deque %d in R is unowned", i)
			}
			continue
		}
		if havePrev && !pl.less(prevBottom, items[len(items)-1]) {
			return fmt.Errorf("core: lemma 3.1(3): deque %d out of order", i)
		}
		prevBottom, havePrev = items[0], true
	}
	return nil
}
