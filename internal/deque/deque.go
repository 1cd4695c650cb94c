// Package deque provides one processor's deque of algorithm DFDeques
// (Narlikar, SPAA '99, §3.2): a doubly-ended queue of ready threads. The
// owner processor treats it as a LIFO stack (PushTop/PopTop); thief
// processors steal from the bottom (PopBottom), which holds the thread
// with the lowest 1DF priority in the deque — typically the coarsest
// thread. The ordered list R of deques, and which processor owns which
// deque, are the scheduler's (policy.DFD); a Deque knows nothing of
// them.
package deque

import (
	"runtime"
	"sync/atomic"
)

// minCap is the initial slot-array capacity of a deque's first epoch.
const minCap = 32

// pack combines an ABA generation tag and a bottom index into the single
// atomic word thieves CAS. unpack splits it again.
func pack(tag, bot uint32) uint64       { return uint64(tag)<<32 | uint64(bot) }
func unpack(w uint64) (tag, bot uint32) { return uint32(w >> 32), uint32(w) }

// Deque is a lock-free doubly-ended queue in the ABP (Arora–Blumofe–
// Plaxton) style, with the classic orientation inverted to match the
// paper's steal rule: thieves take the *bottom* (oldest, coarsest) end,
// so it is the bottom index — not the top — that is packed with a
// generation tag into one atomic word and advanced by a thief's CAS,
// while the owner works the top end with plain atomic loads and stores
// plus a single CAS in the one-item conflict case.
//
// # Word layout and roles
//
//	bottom: one atomic.Uint64 = (tag uint32) << 32 | (bot uint32).
//	        Thieves CAS (tag, bot) → (tag, bot+1) to claim slot bot; the
//	        owner CASes or stores (tag+1, 0) to start a fresh epoch on
//	        every empty transition, compaction, and Reset.
//	top:    an atomic.Int64 written only by the owner. The live window is
//	        the slots [bot, top).
//	arr:    the slot array, swapped only by the owner and only while the
//	        deque is provably empty in a brand-new epoch (see claim-all
//	        below), so a tag match certifies the array too.
//
// Slots are individually atomic (atomic.Value) so that a thief's read of
// slot bot can race the owner's lazy scrubbing of vacated slots without a
// data race; a thief uses a slot value only if its subsequent CAS on the
// bottom word succeeds, which certifies the value was the live bottom.
//
// # Memory-ordering argument (Go memory model)
//
// Every access to bottom/top/arr/slots is a sync/atomic operation, and
// Go's atomics are sequentially consistent: all of them order as one
// total order consistent with each goroutine's program order, so the
// classic ABP interference proofs carry over verbatim. The two orders
// that matter:
//
//	thief:  load bottom → load top → load arr → load slot → CAS bottom
//	owner:  (pop) store top=t-1 FIRST, then load bottom and branch
//
// The owner publishing its decrement before inspecting the bottom word is
// what makes the ≥2-item pop safe without a CAS: once top=t-1 is visible,
// any thief that could claim slot t-1 must have loaded top ≥ t before the
// owner's store — but then its bottom-word load predates the owner's, and
// the owner would have seen bot = t-1 and taken the CAS-arbitrated
// conflict path instead. Symmetrically a thief's CAS succeeding certifies
// nothing moved under it: same tag ⇒ same epoch ⇒ same array, and
// top > bot in this epoch ⇒ the owner's slot store is ordered before its
// top store, which the thief loaded after the bottom word.
//
// # ABA and recycling
//
// The tag bumps on every transition that could let a stale thief
// misfire: the owner's one-item conflict claim, every empty transition,
// claim-all compaction/growth, and Reset (the freelist recycling path).
// A thief that loaded the bottom word before any of these fails its CAS —
// even if bot has returned to the same numeric value, and even if the
// deque was Reset and reused for a different job in between. The tag is
// 32 bits and wraps; an ABA would need exactly 2³² tag bumps between one
// thief's load and its CAS.
//
// # Claim-all (compaction and growth)
//
// PushTop with top at the array's end first *hides* the live window
// (stores top=0), then claims it wholesale by CASing the bottom word to
// (tag+1, 0) — each CAS failure is a concurrent thief legitimately
// winning one more bottom slot, so the loop retries on the fresher word —
// and only then, alone in the new epoch, copies the survivors down to
// [0, n) (or into a doubled array when more than half the slots are
// live), scrubs the vacated tail, and republishes with a plain top=n
// store. The deque transiently appears empty to concurrent thieves;
// for a work-stealing pool that is just a failed steal attempt.
//
// # Vacated-slot hygiene
//
// The owner zeroes the slot of every item it pops itself, immediately.
// Slots vacated by thieves are scrubbed lazily — by the owner's next
// PushTop (everything below the current bottom is dead), by the next
// empty transition, and by Reset — so popped thread frames never linger
// reachable past the owner's next touch of the deque.
//
// A Deque is safe for one owner goroutine plus any number of concurrent
// PopBottom/Len callers, with no locks anywhere: the tagged bottom word
// is the only thing a foreigner may act on. PushTop/PopTop/PopTopIf/
// PeekTop/Reset/Items are owner-side (PeekTop, Reset and Items may also
// be called while the owner role is quiescent or transferred with
// external happens-before, e.g. on an unowned deque under a pool's spine
// lock). PopBottom may spuriously fail under contention — callers treat
// that as a failed steal. T must be a non-interface comparable type
// (atomic.Value cannot store nil interfaces); every scheduler
// instantiates deques with pointer element types. The zero Deque is an
// empty deque.
type Deque[T comparable] struct {
	bottom atomic.Uint64                  // (tag << 32) | bot — the thief word
	top    atomic.Int64                   // owner-written; live window is [bot, top)
	arr    atomic.Pointer[[]atomic.Value] // owner-swapped, tag-certified

	// cleaned is the owner-private low-water mark of scrubbed slots: every
	// slot below it holds no stale reference. Only the owner (or a Reset
	// caller with external happens-before) touches it.
	cleaned int
}

// Reset reinitializes d for reuse from a freelist: empty, with every slot
// scrubbed so no stale references survive into the next incarnation. The
// slot array is retained, so recycled deques stay amortized alloc-free.
// The generation tag is *kept and bumped*, not zeroed: a thief still
// holding a pointer to this deque from its previous life fails its CAS
// against the new epoch — Reset is itself an ABA barrier. The caller must
// guarantee no goroutine still legitimately owns d; schedulers recycle a
// deque only after deleting it from R under the spine lock.
func (d *Deque[T]) Reset() {
	_, bot := unpack(d.bottom.Load())
	hi := int(d.top.Load())
	if int(bot) > hi {
		hi = int(bot)
	}
	d.top.Store(0)
	d.scrub(hi)
	d.bumpEpoch()
}

// bumpEpoch plain-stores a fresh (tag+1, 0) bottom word. Owner-only, and
// only on paths where the deque is empty (or being wiped by Reset), so a
// racing thief can at worst fail its CAS.
func (d *Deque[T]) bumpEpoch() {
	tag, _ := unpack(d.bottom.Load())
	d.bottom.Store(pack(tag+1, 0))
	d.cleaned = 0
}

// scrub zeroes slots [cleaned, hi), releasing references in slots vacated
// by thieves, and resets the low-water mark. Owner-only.
func (d *Deque[T]) scrub(hi int) {
	ap := d.arr.Load()
	if ap == nil {
		d.cleaned = 0
		return
	}
	a := *ap
	if hi > len(a) {
		hi = len(a)
	}
	var zero T
	for i := d.cleaned; i < hi; i++ {
		a[i].Store(zero)
	}
	d.cleaned = 0
}

// Len reports the number of items in the deque: exact for the owner, a
// point-in-time snapshot for everyone else.
func (d *Deque[T]) Len() int {
	_, bot := unpack(d.bottom.Load())
	if n := d.top.Load() - int64(bot); n > 0 {
		return int(n)
	}
	return 0
}

// Empty reports whether the deque holds no items (same snapshot caveat as
// Len).
func (d *Deque[T]) Empty() bool { return d.Len() == 0 }

// PushTop pushes an item onto the top of the deque (owner operation).
// On the way it lazily scrubs slots vacated by thieves, and runs claim-all
// compaction/growth when the slot array's top end is exhausted.
func (d *Deque[T]) PushTop(x T) {
	t := d.top.Load()
	ap := d.arr.Load()
	if ap == nil || int(t) == len(*ap) {
		d.claimAll(int(t))
		t = d.top.Load()
		ap = d.arr.Load()
	}
	a := *ap
	if _, bot := unpack(d.bottom.Load()); d.cleaned < int(bot) {
		var zero T
		for ; d.cleaned < int(bot); d.cleaned++ {
			a[d.cleaned].Store(zero)
		}
	}
	a[t].Store(x)
	d.top.Store(t + 1)
}

// claimAll hides the live window, claims it from concurrent thieves with
// a tag-bumping CAS, compacts the survivors to the array's base (doubling
// the array if more than half its slots are live), and republishes. See
// the type comment's claim-all section. t is the owner's current top.
func (d *Deque[T]) claimAll(t int) {
	d.top.Store(0)
	var bot int
	for {
		w := d.bottom.Load()
		tag, b := unpack(w)
		if d.bottom.CompareAndSwap(w, pack(tag+1, 0)) {
			bot = int(b)
			break
		}
		// Lost to a thief claiming one more bottom slot; retry on the
		// fresher word.
	}
	if bot > t {
		bot = t // thieves drained everything before the claim landed
	}
	n := t - bot
	old := d.arr.Load()
	switch {
	case old == nil:
		a := make([]atomic.Value, minCap)
		d.arr.Store(&a)
	case n > len(*old)/2:
		// Genuinely full: double. More than half live keeps in-place
		// compaction amortized O(1) per push (each compaction frees at
		// least half the array).
		a := make([]atomic.Value, 2*len(*old))
		for i := 0; i < n; i++ {
			a[i].Store((*old)[bot+i].Load())
		}
		d.arr.Store(&a)
	default:
		// Compact in place: ascending copy is overlap-safe (dst < src),
		// then scrub everything the move vacated — including the slots
		// thieves emptied below the old bottom.
		a := *old
		var zero T
		for i := 0; i < n; i++ {
			a[i].Store(a[bot+i].Load())
		}
		for i := n; i < t; i++ {
			a[i].Store(zero)
		}
	}
	d.cleaned = 0
	d.top.Store(int64(n)) // republish: slots and array are visible first
}

// PopTop removes and returns the top item (owner operation). The second
// result is false if the deque is empty. Empty transitions start a fresh
// epoch (tag bump) and scrub thief-vacated slots.
func (d *Deque[T]) PopTop() (T, bool) {
	var zero T
	t := d.top.Load()
	if t == 0 {
		// Every emptying path resets top to 0 with the word already
		// rebased, so top==0 means empty — no stale slots either.
		return zero, false
	}
	nt := t - 1
	d.top.Store(nt) // publish the claim BEFORE inspecting the thief word
	w := d.bottom.Load()
	tag, bot := unpack(w)
	a := *d.arr.Load()
	if int64(bot) < nt {
		// ≥2 items: no thief can reach slot nt once top=nt is visible.
		x, _ := a[nt].Load().(T)
		a[nt].Store(zero)
		return x, true
	}
	if int64(bot) == nt {
		// One item left: arbitrate with any thief via the word CAS. The
		// top=0 store first is the classic ABP ordering — win or lose,
		// the deque ends this epoch empty.
		x, _ := a[nt].Load().(T)
		d.top.Store(0)
		if d.bottom.CompareAndSwap(w, pack(tag+1, 0)) {
			d.scrub(int(bot)) // thief-vacated slots below the conflict slot
			a[nt].Store(zero)
			d.cleaned = 0
			return x, true
		}
		// A thief won the last item.
		d.scrub(int(t))
		d.bumpEpoch()
		return zero, false
	}
	// bot > nt: thieves drained the deque before our claim.
	d.top.Store(0)
	d.scrub(int(t))
	d.bumpEpoch()
	return zero, false
}

// PopTopIf removes the top item only if it equals want, reporting whether
// it did (owner operation). This is the continuation engine's inline-join
// pop: the owner may only claim its own forked child if nothing — a thief,
// a woken thread — has displaced it from the deque top, and the check and
// the pop must share one linearization point or a racing bottom-steal of
// the same single item could be double-claimed. Here the peek is safe
// because only the owner writes top slots, and the claim is PopTop's own
// linearization (the plain top decrement, or the conflict CAS — which a
// thief winning the last item makes fail, correctly reporting a miss).
func (d *Deque[T]) PopTopIf(want T) bool {
	t := d.top.Load()
	if t == 0 {
		return false
	}
	x, ok := (*d.arr.Load())[t-1].Load().(T)
	if !ok || x != want {
		return false
	}
	_, ok = d.PopTop()
	return ok
}

// PeekTop returns the top item without removing it. Owner-side: only the
// owner writes top and the top slots, so a single read is exact; thieves
// may race it from the bottom end, in which case the value was the top at
// the instant of the read.
func (d *Deque[T]) PeekTop() (T, bool) {
	t := d.top.Load()
	if _, bot := unpack(d.bottom.Load()); t <= int64(bot) {
		var zero T
		return zero, false
	}
	x, ok := (*d.arr.Load())[t-1].Load().(T)
	return x, ok
}

// PopBottom removes and returns the bottom item — the thief operation,
// one CAS on the bottom word. The second result is false if the deque is
// empty OR the CAS lost to a concurrent thief or to the owner's conflict
// claim: a false is always just a failed steal, and callers retry or move
// on. Single-threaded callers (the serial engines) never experience the
// spurious failure.
func (d *Deque[T]) PopBottom() (T, bool) {
	var zero T
	w := d.bottom.Load()
	tag, bot := unpack(w)
	t := d.top.Load()
	if t <= int64(bot) {
		return zero, false
	}
	ap := d.arr.Load()
	if ap == nil || int(bot) >= len(*ap) {
		return zero, false // stale geometry: epoch changed under us
	}
	x, _ := (*ap)[bot].Load().(T)
	if d.bottom.CompareAndSwap(w, pack(tag, bot+1)) {
		// Same tag ⇒ same epoch ⇒ same array and a slot the owner
		// published before top first exceeded bot: x is the live bottom.
		return x, true
	}
	return zero, false
}

// Items returns a copy of the deque's contents from bottom to top. It
// retries until it reads a consistent (word, top) snapshot, so it must
// only be called while the owner role is quiescent (invariant checkers
// under a pool's spine lock, serial engines); concurrent thieves only
// make it retry finitely. It copies because, with per-slot atomics,
// there is no stable backing slice to alias.
func (d *Deque[T]) Items() []T {
	for tries := 0; ; tries++ {
		w := d.bottom.Load()
		_, bot := unpack(w)
		t := d.top.Load()
		if t <= int64(bot) {
			return nil
		}
		ap := d.arr.Load()
		if ap == nil {
			return nil
		}
		a := *ap
		if int(t) > len(a) {
			continue
		}
		out := make([]T, 0, int(t)-int(bot))
		good := true
		for i := int(bot); i < int(t); i++ {
			x, ok := a[i].Load().(T)
			if !ok {
				good = false
				break
			}
			out = append(out, x)
		}
		if good && d.top.Load() == t && d.bottom.Load() == w {
			return out
		}
		if tries%8 == 7 {
			runtime.Gosched()
		}
	}
}
