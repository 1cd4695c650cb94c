// Package core implements the heart of the paper's contribution — the
// DFDeques ready-thread pool (§3.2–3.3) — as an engine-independent data
// structure: the globally ordered list R of ready deques together with the
// owner/thief operations of algorithm DFDeques.
//
// The structure is deliberately free of threads, time, and locking so two
// very different engines can drive it:
//
//   - the machine simulator's DFDeques scheduler (internal/sched) drives a
//     Pool serially, using BeginRound/StealFrom for the §4.1 per-timestep
//     steal arbitration (at most one successful steal per deque per round)
//     and its ablation switches;
//   - the concurrent runtime's DFDeques policy (internal/policy) uses the
//     fine-grained SharedPool variant;
//   - tests drive both directly to property-check the Lemma 3.1 ordering
//     invariants without a machine in the loop.
package core

import (
	"fmt"
	"math/rand"

	"dfdeques/internal/deque"
)

// Pool is the DFDeques ready pool for p workers. It is NOT safe for
// concurrent use; callers serialize access (one mutex in practice, §5).
type Pool[T comparable] struct {
	p    int
	r    deque.List[T]
	own  []*deque.Deque[T]
	rng  *rand.Rand
	less func(a, b T) bool // 1DF priority: less = higher priority

	maxR int

	// stolen arbitrates steals within one timestep of the simulator's cost
	// model (§4.1): at most one steal per deque per round succeeds. Only
	// StealFrom consults it; Steal (the real-time path) never does.
	stolen map[*deque.Deque[T]]bool
}

// NewPool builds a pool for p workers. less reports whether a has higher
// 1DF priority than b; it is used to place threads woken by
// synchronization (§5's extension) and by CheckInvariants. rng drives
// victim selection.
func NewPool[T comparable](p int, less func(a, b T) bool, rng *rand.Rand) *Pool[T] {
	if p < 1 {
		panic("core: pool needs at least one worker")
	}
	return &Pool[T]{
		p:    p,
		own:  make([]*deque.Deque[T], p),
		rng:  rng,
		less: less,
	}
}

// Seed places the root thread into a fresh, unowned deque at the left end
// of R, ready to be stolen by the first idle worker.
func (pl *Pool[T]) Seed(root T) {
	d := pl.r.PushLeft()
	d.PushTop(root)
	pl.noteR()
}

// PushOwn pushes x onto worker w's deque top (the fork and preemption
// path). The worker must own a deque.
func (pl *Pool[T]) PushOwn(w int, x T) {
	d := pl.own[w]
	if d == nil {
		panic("core: PushOwn without an owned deque")
	}
	d.PushTop(x)
}

// PopOwn pops the top of w's deque. When the deque is empty it is deleted
// from R (the give-up-and-delete step of the scheduling loop) and ok is
// false — the worker must steal next.
func (pl *Pool[T]) PopOwn(w int) (x T, ok bool) {
	d := pl.own[w]
	if d == nil {
		return x, false
	}
	if x, ok = d.PopTop(); ok {
		return x, true
	}
	pl.r.Delete(d)
	pl.own[w] = nil
	return x, false
}

// GiveUp releases ownership of w's deque without popping (the
// quota-exhaustion path): the deque stays in R, unowned and stealable. An
// empty deque is deleted instead.
func (pl *Pool[T]) GiveUp(w int) {
	d := pl.own[w]
	if d == nil {
		return
	}
	if d.Empty() {
		pl.r.Delete(d)
	} else {
		d.Owner = -1
	}
	pl.own[w] = nil
}

// Steal performs one steal attempt for worker w: pick a uniformly random
// deque among the leftmost p in R, pop its bottom thread, and become owner
// of a new deque placed immediately to the victim's right. ok is false if
// the attempt failed (nonexistent or empty victim). The worker must not
// own a deque.
func (pl *Pool[T]) Steal(w int) (x T, ok bool) {
	if pl.own[w] != nil {
		panic("core: Steal while owning a deque")
	}
	c := pl.rng.Intn(pl.p)
	if c >= pl.r.Len() {
		return x, false
	}
	victim := pl.r.Kth(c)
	x, ok = victim.PopBottom()
	if !ok {
		return x, false
	}
	nd := pl.r.InsertRight(victim)
	nd.Owner = w
	pl.own[w] = nd
	if victim.Empty() && victim.Owner == -1 {
		pl.r.Delete(victim)
	}
	pl.noteR()
	return x, true
}

// BeginRound starts a new steal round of the simulator's cost model:
// every deque becomes stealable again (§4.1 allows at most one successful
// steal per deque per timestep, arbitrated by StealFrom).
func (pl *Pool[T]) BeginRound() {
	if pl.stolen == nil {
		pl.stolen = make(map[*deque.Deque[T]]bool, pl.p)
	}
	clear(pl.stolen)
}

// StealFrom is the deterministic, arbitrated variant of Steal: the caller
// names the victim as an index c from the left end of R (the leftmost-p
// sample, with the window choice — and the randomness — in the caller's
// hands), and at most one StealFrom per deque succeeds between
// BeginRound calls. fromTop is the steal-from-top ablation: the thief
// takes the victim's newest thread instead of its bottom one, and its new
// deque goes to the victim's left to keep R roughly ordered. The worker
// must not own a deque.
func (pl *Pool[T]) StealFrom(w, c int, fromTop bool) (x T, ok bool) {
	if pl.own[w] != nil {
		panic("core: StealFrom while owning a deque")
	}
	if c >= pl.r.Len() {
		return x, false
	}
	victim := pl.r.Kth(c)
	if victim.Empty() || pl.stolen[victim] {
		return x, false
	}
	if pl.stolen == nil {
		pl.stolen = make(map[*deque.Deque[T]]bool, pl.p)
	}
	pl.stolen[victim] = true
	var nd *deque.Deque[T]
	if fromTop {
		x, _ = victim.PopTop()
		if pos := victim.Pos(); pos == 0 {
			nd = pl.r.PushLeft()
		} else {
			nd = pl.r.InsertRight(pl.r.Kth(pos - 1))
		}
	} else {
		x, _ = victim.PopBottom()
		nd = pl.r.InsertRight(victim)
	}
	nd.Owner = w
	pl.own[w] = nd
	if victim.Empty() && victim.Owner == -1 {
		pl.r.Delete(victim)
	}
	pl.noteR()
	return x, true
}

// PushWoken places a thread woken by a blocking synchronization into a new
// deque at its priority position in R (§5's extension beyond the
// nested-parallel model).
func (pl *Pool[T]) PushWoken(x T) {
	insertAt := pl.r.Len()
	for i := 0; i < pl.r.Len(); i++ {
		top, ok := pl.r.Kth(i).PeekTop()
		if !ok {
			continue
		}
		if pl.less(x, top) {
			insertAt = i
			break
		}
	}
	var nd *deque.Deque[T]
	if insertAt == 0 {
		nd = pl.r.PushLeft()
	} else {
		nd = pl.r.InsertRight(pl.r.Kth(insertAt - 1))
	}
	nd.PushTop(x)
	pl.noteR()
}

// HasWork reports whether any deque in R holds a stealable thread.
func (pl *Pool[T]) HasWork() bool {
	found := false
	pl.r.Walk(func(d *deque.Deque[T]) bool {
		if !d.Empty() {
			found = true
			return false
		}
		return true
	})
	return found
}

// Owns reports whether worker w currently owns a deque.
func (pl *Pool[T]) Owns(w int) bool { return pl.own[w] != nil }

// Deques returns the current number of deques in R.
func (pl *Pool[T]) Deques() int { return pl.r.Len() }

// MaxDeques returns the high-water mark of len(R).
func (pl *Pool[T]) MaxDeques() int { return pl.maxR }

func (pl *Pool[T]) noteR() {
	if n := pl.r.Len(); n > pl.maxR {
		pl.maxR = n
	}
}

// CheckInvariants verifies the Lemma 3.1 ordering over the pool's deques:
// every deque is priority-sorted top to bottom, and deques are ordered
// left to right by decreasing priority. curr gives each worker's currently
// executing thread (ok=false when idle) for clause (2).
func (pl *Pool[T]) CheckInvariants(curr func(w int) (T, bool)) error {
	snap := make([][]T, pl.r.Len()) // bottom to top, per deque of R
	for i := range snap {
		items := pl.r.Kth(i).Items()
		for j := 1; j < len(items); j++ {
			if !pl.less(items[j], items[j-1]) {
				return fmt.Errorf("core: lemma 3.1(1): deque %d unsorted at %d", i, j)
			}
		}
		snap[i] = items
	}
	for w := 0; w < pl.p; w++ {
		d := pl.own[w]
		if d == nil {
			continue
		}
		x, running := curr(w)
		if !running {
			continue
		}
		if items := snap[d.Pos()]; len(items) > 0 && !pl.less(x, items[len(items)-1]) {
			return fmt.Errorf("core: lemma 3.1(2): worker %d below its deque top", w)
		}
	}
	var havePrev bool
	var prevBottom T
	for i, items := range snap {
		if len(items) == 0 {
			// Every operation deletes a deque it empties unless the owner
			// keeps it; an empty unowned deque would be unstealable dead
			// weight in R.
			if pl.r.Kth(i).Owner == -1 {
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
