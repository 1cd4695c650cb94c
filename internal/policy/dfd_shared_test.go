package policy

// Tests for R under the runtime's entries. The sequential tests pin the
// protocol through Acquire's steal and the fused give-up, as
// dfd_serial_test.go does through the simulator's StealFrom; the hammer
// tests exist for the -race tier-1 run.

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dfdeques/internal/rtrace"
)

// intDFD builds a DFDeques(∞) policy over ints, smaller = higher priority.
func intDFD(p int, seed int64) *DFD[int] {
	return NewDFD(p, 0, func(a, b int) bool { return a < b }, seed)
}

// instrument attaches probe to an intDFD: a thread's id is its value, and
// no thread is a dummy.
func instrument(pl *DFD[int], probe rtrace.Probe) {
	pl.Instrument(probe, func(x int) int64 { return int64(x) }, func(int) bool { return false })
}

// owns reports whether worker w owns a deque.
func owns[T comparable](pl *DFD[T], w int) bool { return pl.lanes[w].own != nil }

// pushOwn pushes x onto worker w's deque top, as a fork pushes its child,
// and records the push.
func pushOwn[T comparable](pl *DFD[T], w int, x T) {
	dq := pl.ownDeque(w)
	pl.traceThread(w, rtrace.EvPush, x, dq.id, 0)
	pl.pushTop(dq, x)
}

// giveUp releases w's deque in a spine section of its own — the give-up of
// the serial policy, on a policy whose own give-ups steal.
func giveUp[T comparable](pl *DFD[T], w int) {
	pl.lock()
	if dq := pl.lanes[w].own; dq != nil {
		pl.release(w, dq)
	}
	pl.unlock()
}

// giveUpSteal is the fused give-up of a dummy that has no joiner to
// republish, and the Acquire that reports its steal.
func giveUpSteal(pl *DFD[int], w int) (int, bool) {
	pl.Dummy(w)
	if _, ok := pl.Terminate(w, 0, false); ok {
		panic("Terminate after a dummy handed a thread over")
	}
	return pl.Acquire(w)
}

// sharedStealUntil retries until the random victim pick succeeds.
func sharedStealUntil(t *testing.T, pl *DFD[int], w int) int {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if x, ok := pl.Acquire(w); ok {
			return x
		}
	}
	t.Fatal("steal never succeeded")
	return 0
}

func TestSharedSeedAndFirstSteal(t *testing.T) {
	pl := intDFD(4, 1)
	pl.Seed(10)
	if !pl.HasWork() {
		t.Fatal("seeded pool reports no work")
	}
	if got := sharedStealUntil(t, pl, 0); got != 10 {
		t.Fatalf("stole %d, want 10", got)
	}
	if !owns(pl, 0) {
		t.Fatal("stealer should own a deque")
	}
	if pl.HasWork() {
		t.Fatal("pool should be drained")
	}
}

func TestSharedPushPopOwnLIFO(t *testing.T) {
	pl := intDFD(2, 2)
	pl.Seed(1)
	sharedStealUntil(t, pl, 0)
	pushOwn(pl, 0, 5)
	pushOwn(pl, 0, 4)
	if x, ok := pl.Next(0); !ok || x != 4 {
		t.Fatalf("Next = %d,%v want 4", x, ok)
	}
	if x, ok := pl.Next(0); !ok || x != 5 {
		t.Fatalf("Next = %d,%v want 5", x, ok)
	}
	if _, ok := pl.Next(0); ok {
		t.Fatal("Next on empty should fail")
	}
	if owns(pl, 0) {
		t.Fatal("deque should have been deleted")
	}
	if pl.Deques() != 0 {
		t.Fatalf("R should be empty, has %d", pl.Deques())
	}
}

func TestSharedGiveUpLeavesDequeStealable(t *testing.T) {
	pl := intDFD(2, 3)
	pl.Seed(1)
	sharedStealUntil(t, pl, 0)
	pushOwn(pl, 0, 7)
	giveUp(pl, 0)
	if owns(pl, 0) {
		t.Fatal("giveUp did not release ownership")
	}
	if !pl.HasWork() {
		t.Fatal("given-up deque should remain stealable")
	}
	if got := sharedStealUntil(t, pl, 1); got != 7 {
		t.Fatalf("stole %d from abandoned deque, want 7", got)
	}
	if pl.Deques() != 1 { // the thief's fresh deque; the drained one is gone
		t.Fatalf("Deques = %d, want 1", pl.Deques())
	}
}

func TestSharedGiveUpEmptyDequeDeletes(t *testing.T) {
	pl := intDFD(2, 4)
	pl.Seed(1)
	sharedStealUntil(t, pl, 0)
	giveUp(pl, 0)
	if pl.Deques() != 0 {
		t.Fatalf("empty given-up deque should be deleted; R has %d", pl.Deques())
	}
}

// TestSharedGiveUpStealIsOneSection pins the fused give-up: release and
// steal cost one exclusive spine acquisition, are traced release-first —
// after the turn to stealing, and with the stolen thread's dispatch —
// and leave the pool exactly where giveUp followed by a successful
// Acquire would — the thief owns a fresh deque right of its victim, and a
// victim it drained is gone. With one worker the draw cannot miss.
func TestSharedGiveUpStealIsOneSection(t *testing.T) {
	rec := rtrace.NewRecorder(1, 64)
	pl := intDFD(1, 3)
	instrument(pl, rec)
	pl.Seed(1)
	sharedStealUntil(t, pl, 0)
	pushOwn(pl, 0, 7)
	pushOwn(pl, 0, 6)
	locks, mark := pl.Stats().LockOps, rec.Len()

	if x, ok := giveUpSteal(pl, 0); !ok || x != 7 {
		t.Fatalf("giveUpSteal = %d,%v, want the released deque's bottom 7", x, ok)
	}
	if got := pl.Stats().LockOps - locks; got != 1 {
		t.Errorf("give-up and steal took the spine %d times, want 1", got)
	}
	if !owns(pl, 0) || !pl.HasWork() {
		t.Errorf("after the steal: Owns = %v, HasWork = %v, want true, true (6 stays behind)", owns(pl, 0), pl.HasWork())
	}
	if got, want := sharedLayout(pl), [][]int{{6}, nil}; !reflect.DeepEqual(got, want) {
		t.Errorf("R = %v, want %v", got, want)
	}
	var kinds []rtrace.Kind
	for _, e := range rec.Events()[mark:] {
		kinds = append(kinds, e.Kind)
	}
	if want := []rtrace.Kind{rtrace.EvIdle, rtrace.EvDequeRelease, rtrace.EvStealAttempt, rtrace.EvSteal, rtrace.EvDispatch}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("traced %v, want %v", kinds, want)
	}

	// The thief's deque is empty: this give-up retires it, and the steal
	// drains the victim and takes it over.
	if x, ok := giveUpSteal(pl, 0); !ok || x != 6 {
		t.Fatalf("second giveUpSteal = %d,%v, want 6", x, ok)
	}
	if pl.Deques() != 1 || pl.HasWork() {
		t.Errorf("Deques = %d, HasWork = %v, want the thief's deque alone and no work", pl.Deques(), pl.HasWork())
	}
	if st := pl.Stats(); st.Steals != 3 || st.FailedSteals != 0 {
		t.Errorf("steals = %d, failed = %d, want 3, 0", st.Steals, st.FailedSteals)
	}
}

// TestSharedGiveUpStealRedraws: with R shorter than p a draw can name a
// position R does not have. Each such draw is a counted, traced failed
// attempt, redrawn inside the same section, giveUpRedraws times at most;
// the deque is released either way and the next Acquire finds it.
func TestSharedGiveUpStealRedraws(t *testing.T) {
	const p, rounds = 4, 400
	pl := intDFD(p, 5)
	pl.Seed(1)
	x := sharedStealUntil(t, pl, 0)
	var missedAll, redrewAndHit int
	for i := 0; i < rounds; i++ {
		pushOwn(pl, 0, x)
		locks := pl.Stats().LockOps
		failed0 := pl.Stats().FailedSteals
		y, ok := giveUpSteal(pl, 0)
		failed1 := pl.Stats().FailedSteals
		if got := pl.Stats().LockOps - locks; got != 1 {
			t.Fatalf("round %d: %d spine acquisitions, want 1", i, got)
		}
		switch misses := failed1 - failed0; {
		case ok && (y != x || misses > giveUpRedraws):
			t.Fatalf("round %d: stole %d after %d misses, want %d after at most %d", i, y, misses, x, giveUpRedraws)
		case ok && misses > 0:
			redrewAndHit++
		case !ok && misses != giveUpRedraws+1:
			t.Fatalf("round %d: gave up drawing after %d misses, want %d", i, misses, giveUpRedraws+1)
		case !ok:
			missedAll++
			if owns(pl, 0) || !pl.HasWork() || pl.Deques() != 1 {
				t.Fatalf("round %d: a missed steal must leave the deque released in R", i)
			}
			x = sharedStealUntil(t, pl, 0)
		}
	}
	// One deque among p = 4 positions: a draw misses with probability 3/4.
	if missedAll == 0 || redrewAndHit == 0 {
		t.Errorf("over %d rounds %d give-ups missed every draw and %d hit on a redraw: both must occur", rounds, missedAll, redrewAndHit)
	}
}

// TestSharedGiveUpStealRedrawsPastAnEmptyDeque: another worker's deque in
// R, owned and drained, is a draw Acquire's screen would pass over without a
// section. Inside the give-up's section it is a failed attempt redrawn in
// place, like a miss, not the section's one attempt: the give-up fails
// only when every draw failed.
func TestSharedGiveUpStealRedrawsPastAnEmptyDeque(t *testing.T) {
	const rounds = 400
	pl := intDFD(2, 15)
	pl.Seed(1)
	sharedStealUntil(t, pl, 1) // worker 1 takes the drained deque over
	pl.Inject(2)
	x := sharedStealUntil(t, pl, 0)
	var redrew int
	for i := 0; i < rounds; i++ {
		pushOwn(pl, 0, x)
		failed0 := pl.Stats().FailedSteals
		y, ok := giveUpSteal(pl, 0)
		failed1 := pl.Stats().FailedSteals
		switch misses := failed1 - failed0; {
		case ok && y != x:
			t.Fatalf("round %d: stole %d, want %d", i, y, x)
		case ok && misses > 0:
			redrew++
		case !ok && misses != giveUpRedraws+1:
			t.Fatalf("round %d: gave up after %d failed draws, want %d", i, misses, giveUpRedraws+1)
		case !ok:
			x = sharedStealUntil(t, pl, 0)
		}
		if got := sharedLayout(pl); len(got) != 2 || len(got[0]) != 0 {
			t.Fatalf("round %d: R = %v, want worker 1's empty deque and worker 0's", i, got)
		}
	}
	if redrew == 0 {
		t.Errorf("no give-up in %d rounds redrew past the empty deque", rounds)
	}
}

// TestSharedGiveUpStealWithoutADeque: a worker that owns nothing releases
// nothing and just steals; it records its turn to stealing as a plain
// idle record and its missed draws as misses.
func TestSharedGiveUpStealWithoutADeque(t *testing.T) {
	rec := rtrace.NewRecorder(1, 64)
	pl := intDFD(1, 6)
	instrument(pl, rec)
	if _, ok := giveUpSteal(pl, 0); ok {
		t.Fatal("stole from an empty R")
	}
	pl.Seed(4)
	if x, ok := giveUpSteal(pl, 0); !ok || x != 4 {
		t.Fatalf("giveUpSteal = %d,%v, want 4", x, ok)
	}
	var kinds []rtrace.Kind
	for _, e := range rec.Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []rtrace.Kind{rtrace.EvIdle, rtrace.EvStealAttempt, rtrace.EvStealAttempt, rtrace.EvStealAttempt, rtrace.EvStealAttempt,
		rtrace.EvDequeCreate, rtrace.EvPush, rtrace.EvIdle, rtrace.EvStealAttempt, rtrace.EvSteal, rtrace.EvDequeRetire, rtrace.EvDispatch}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("traced %v, want %v", kinds, want)
	}
}

func TestSharedStealFromBottom(t *testing.T) {
	pl := intDFD(2, 5)
	pl.Seed(3)
	sharedStealUntil(t, pl, 0)
	pushOwn(pl, 0, 2) // deque bottom→top: 3? no — stolen 3 runs; pushed 2 then 1
	pushOwn(pl, 0, 1)
	// Thief must take the bottom (lowest priority pushed first): 2.
	if got := sharedStealUntil(t, pl, 1); got != 2 {
		t.Fatalf("thief stole %d, want bottom item 2", got)
	}
}

// sharedLayout returns R as the test sees it: each deque's items, bottom
// to top, left to right. Quiescent callers only.
func sharedLayout(pl *DFD[int]) [][]int {
	out := make([][]int, len(pl.r))
	for i := range out {
		out[i] = pl.r[i].Items()
	}
	return out
}

func TestSharedPushWokenOrdering(t *testing.T) {
	pl := intDFD(4, 6)
	pl.Seed(5)
	sharedStealUntil(t, pl, 0)
	pushOwn(pl, 0, 6)
	giveUp(pl, 0) // unowned: the spine freezes it, so Wake may compare
	pl.Wake(0, 2) // higher priority than 6 → left of the deque holding 6
	pl.Wake(0, 9) // lower priority → right end
	idle := func(int) (int, bool) { return 0, false }
	if err := pl.CheckInvariants(idle); err != nil {
		t.Fatalf("invariants violated after Wake: %v", err)
	}
	// Highest priority must be at the left: a 1-worker window steal (p
	// counts from the left) grabs 2 first.
	if got := sharedStealUntil(t, pl, 1); got != 2 {
		t.Fatalf("leftmost steal got %d, want 2", got)
	}

	// An OWNED deque is skipped, not peeked into: worker 1 now owns the
	// leftmost deque and pushes 3 on it. A woken 1 outranks that 3, but the
	// first frozen top it outranks is 6, so it lands between the two —
	// right of where Lemma 3.1 would put it, the safe direction.
	pushOwn(pl, 1, 3)
	pl.Wake(0, 1)
	if got, want := sharedLayout(pl), [][]int{{3}, {1}, {6}, {9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("R = %v, want %v", got, want)
	}
}

// TestWakeComparesTheWakersOwnDeque: the waking worker's own deque is
// frozen too — its owner is the caller, and the spine keeps thieves out —
// so Wake compares against its top. Worker 0 runs 4 over a deque holding
// 6 at the bottom and 5 on top; a woken 1 outranks both and must land left
// of that deque, not at the right end, where Lemma 3.1(3) fails.
func TestWakeComparesTheWakersOwnDeque(t *testing.T) {
	pl := intDFD(2, 17)
	pl.Seed(4)
	sharedStealUntil(t, pl, 0)
	pushOwn(pl, 0, 6)
	pushOwn(pl, 0, 5)
	pl.Wake(0, 1)
	running := func(w int) (int, bool) { return 4, w == 0 }
	if err := pl.CheckInvariants(running); err != nil {
		t.Fatalf("R = %v: %v", sharedLayout(pl), err)
	}
	if got, want := sharedLayout(pl), [][]int{{1}, {6, 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("R = %v, want %v", got, want)
	}
}

// TestSharedPlacementReadsOnlyFrozenDeques freezes by hand the window
// behind the Submit crash: worker 0 owns a deque whose top a foreign
// reader must not trust — the owner popped it, it finished, its frame was
// recycled — modeled as a value the priority order panics on. Inject and
// Wake from elsewhere must place their thread without ever calling
// less on it. The second case is the other half of the rule: a given-up
// deque is frozen by the spine, so it IS compared.
func TestSharedPlacementReadsOnlyFrozenDeques(t *testing.T) {
	const recycled = -1
	var calls int
	less := func(a, b int) bool {
		if a == recycled || b == recycled {
			panic("less called on a recycled thread")
		}
		calls++
		return a < b
	}

	t.Run("owned deque is never read", func(t *testing.T) {
		calls = 0
		pl := NewDFD(2, 0, less, 12)
		pl.Seed(5)
		sharedStealUntil(t, pl, 0)
		pushOwn(pl, 0, recycled)
		pl.Inject(7)
		if calls != 0 {
			t.Fatalf("Inject called less %d times, want 0", calls)
		}
		pl.Wake(1, 3) // compares with the appended 7 only, lands left of it
		if got, want := sharedLayout(pl), [][]int{{recycled}, {3}, {7}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("R = %v, want %v", got, want)
		}
		if calls != 1 {
			t.Fatalf("Wake called less %d times, want 1 (the frozen top 7)", calls)
		}
	})

	t.Run("given-up deque is compared", func(t *testing.T) {
		calls = 0
		pl := NewDFD(2, 0, less, 13)
		pl.Seed(5)
		sharedStealUntil(t, pl, 0)
		pushOwn(pl, 0, 6)
		giveUp(pl, 0)
		pl.Wake(1, 2)
		if got, want := sharedLayout(pl), [][]int{{2}, {6}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("R = %v, want %v", got, want)
		}
		if calls != 1 {
			t.Fatalf("Wake called less %d times, want 1", calls)
		}
	})
}

func TestSharedStealPanicsWhileOwning(t *testing.T) {
	pl := intDFD(2, 7)
	pl.Seed(1)
	sharedStealUntil(t, pl, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire while owning a deque should panic")
		}
	}()
	pl.Acquire(0)
}

func TestSharedPushOwnWithoutDequePanics(t *testing.T) {
	pl := intDFD(2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("a give-up's republish without a deque should panic")
		}
	}()
	pl.Preempt(0, 1, 0, false)
}

// TestSharedPoolConcurrentHammer runs p workers through the real
// protocol concurrently: each worker steals, forks a few times (pushing
// "continuations"), drains its deque, and repeats. Conservation of
// items and a quiescent invariant check are the assertions; -race
// validates the synchronization itself.
func TestSharedPoolConcurrentHammer(t *testing.T) {
	const (
		workers = 4
		rounds  = 400
	)
	pl := intDFD(workers, 9)
	var next atomic.Int64 // item id generator; ids only need uniqueness
	var budget atomic.Int64
	budget.Store(1000) // total forks allowed across all workers
	pl.Seed(int(next.Add(1)))
	var consumed atomic.Int64
	var produced atomic.Int64
	produced.Add(1) // the seed

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; {
				x, ok := pl.Acquire(w)
				if !ok {
					if pl.HasWork() {
						continue // unlucky victim pick
					}
					// Pool drained (each round can net-consume an item).
					// Re-inject while the budget lasts; quit otherwise.
					if budget.Add(-1) >= 0 {
						pl.Wake(w, int(next.Add(1)))
						produced.Add(1)
						continue
					}
					return
				}
				r++
				consumed.Add(1)
				_ = x
				// Fork children while the budget lasts: push
				// continuations, run the last.
				forks := 1 + rng.Intn(3)
				for i := 0; i < forks && budget.Add(-1) >= 0; i++ {
					pushOwn(pl, w, int(next.Add(1)))
					produced.Add(1)
				}
				// Drain own deque like a terminating chain, sometimes
				// abandoning it mid-way (quota exhaustion path).
				for owns(pl, w) {
					if rng.Intn(8) == 0 {
						giveUp(pl, w)
						break
					}
					if _, ok := pl.Next(w); ok {
						consumed.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Drain what remains sequentially and balance the books.
	for pl.HasWork() {
		if _, ok := pl.Acquire(0); ok {
			consumed.Add(1)
			giveUp(pl, 0)
		}
	}
	if produced.Load() != consumed.Load() {
		t.Errorf("items not conserved: produced %d, consumed %d",
			produced.Load(), consumed.Load())
	}
	st := pl.Stats()
	if steals, failed, local := st.Steals, st.FailedSteals, st.LocalDispatches; steals == 0 || local == 0 {
		t.Errorf("stats not wired: steals=%d failed=%d local=%d", steals, failed, local)
	}
	if st.MaxDeques < 1 {
		t.Errorf("MaxDeques = %d, want >= 1", st.MaxDeques)
	}
}

// checkWhileRunning calls CheckInvariants in a loop from a goroutine of its
// own until the returned stop is called, which reports the first violation.
// The workers' running threads are not frozen, so none is passed.
func checkWhileRunning(pl *DFD[int]) (stop func() error) {
	done := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				result <- nil
				return
			default:
			}
			if err := pl.CheckInvariants(func(int) (int, bool) { return 0, false }); err != nil {
				result <- err
				return
			}
		}
	}()
	return func() error {
		close(done)
		return <-result
	}
}

// TestSharedPoolConcurrentInvariants interleaves protocol traffic with
// CheckInvariants calls from a separate goroutine: the spine lock blocks
// thieves and membership changes, Items reads each deque through its
// consistent-snapshot loop, and the storm below is push-only on the
// owner side (Acquire/pushOwn/giveUp, never Next) — the regime in which
// the snapshot checker is exact (see DFD.CheckInvariants) — so it
// must always observe a consistent Lemma 3.1 state even mid-storm. Each
// worker forks exactly once per steal, re-pushing the stolen value as
// the continuation — that keeps
// the global ordering provably intact (the stolen bottom is, at the
// moment of the steal, larger than everything left of its new deque and
// smaller than everything right of it), so any ordering error the
// checker reports is a synchronization bug, not a test artifact.
func TestSharedPoolConcurrentInvariants(t *testing.T) {
	const workers = 3
	pl := intDFD(workers, 10)
	pl.Seed(1 << 30)
	for v := 1; v <= 7; v++ { // distinct circulating priorities
		pl.Wake(0, v<<10)
	}

	stopChecker := checkWhileRunning(pl)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 150; {
				x, ok := pl.Acquire(w)
				if !ok {
					if !pl.HasWork() {
						return // the other workers hold everything
					}
					continue
				}
				r++
				// Fork-then-dummy shape: the continuation re-enters R in
				// the deque created at the steal's linearization point, so
				// its position is correct by construction, and giveUp
				// leaves it there for the next thief. (Wake is kept
				// out of this storm: the §5 wake extension is only
				// best-effort ordered while a thief's deque is empty.)
				pushOwn(pl, w, x)
				giveUp(pl, w)
			}
		}(w)
	}
	wg.Wait()
	if err := stopChecker(); err != nil {
		t.Fatalf("concurrent invariant check failed: %v", err)
	}
}

// TestSharedGiveUpStealRacesThieves is the storm above with the owners on
// the fused path — steal, re-push, giveUpSteal, and on with whatever that
// took — racing plain thieves (Acquire, re-push, giveUp) for the deques they
// release, under the same concurrent Lemma 3.1 checker. The released deque
// and the steal that follows are adjacent in the spine's order, so the
// checker, which takes the spine itself, can never see one without the
// other. Items are conserved: nothing a fused steal took is dropped.
func TestSharedGiveUpStealRacesThieves(t *testing.T) {
	const fused, thieves, items = 2, 2, 8
	pl := intDFD(fused+thieves, 14)
	pl.Seed(1 << 30)
	for v := 1; v < items; v++ {
		pl.Wake(0, v<<10)
	}

	stopChecker := checkWhileRunning(pl)

	var wg sync.WaitGroup
	var fusedSteals atomic.Int64
	for w := 0; w < fused+thieves; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x, have := 0, false
			for r := 0; r < 300; r++ {
				for tries := 0; !have; tries++ {
					if x, have = pl.Acquire(w); !have && tries > 1<<16 {
						return // the others hold everything
					}
				}
				pushOwn(pl, w, x)
				if w < fused {
					if x, have = giveUpSteal(pl, w); have {
						fusedSteals.Add(1)
					}
				} else {
					giveUp(pl, w)
					have = false
				}
			}
			if have {
				pushOwn(pl, w, x)
				giveUp(pl, w)
			}
		}(w)
	}
	wg.Wait()
	if err := stopChecker(); err != nil {
		t.Fatalf("concurrent invariant check failed: %v", err)
	}
	if fusedSteals.Load() == 0 {
		t.Error("no fused give-up ever stole")
	}
	seen := map[int]bool{}
	for _, d := range sharedLayout(pl) {
		for _, x := range d {
			seen[x] = true
		}
	}
	if len(seen) != items {
		t.Errorf("%d distinct items left in R, want %d: %v", len(seen), items, sharedLayout(pl))
	}
}

// TestSharedPublishRaisesReadyUnderTheSpine: the ready count is raised
// before publish releases the spine, so a thief that takes an injected
// thread the moment it can never decrements first. With the add after the
// unlock the count read -1 in that window, and HasWork false while other
// work was published (a thread re-stealing after a give-up then handed its
// worker back for nothing). Only Inject and Acquire run here: the owner's
// lock-free pushOwn still publishes before it counts.
func TestSharedPublishRaisesReadyUnderTheSpine(t *testing.T) {
	const thieves, items = 3, 3000
	pl := intDFD(thieves, 15)
	var taken, negative atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < thieves; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for taken.Load() < items {
				if _, ok := pl.Acquire(w); !ok {
					runtime.Gosched()
					continue
				}
				if pl.ready.Load() < 0 {
					negative.Add(1)
				}
				taken.Add(1)
				pl.Next(w) // empty: retires the thief's deque
			}
		}(w)
	}
	for i := 0; i < items; i++ {
		pl.Inject(i)
	}
	wg.Wait()
	if n := negative.Load(); n != 0 {
		t.Errorf("the ready count was negative after %d of %d steals", n, items)
	}
	if pl.HasWork() || pl.Deques() != 0 {
		t.Errorf("HasWork = %v, Deques = %d after every item was taken", pl.HasWork(), pl.Deques())
	}
}

// TestStealCycleAllocs pins the steady-state allocation cost of the full
// scheduler cycle — seed, steal, fork-push, cross-worker steal, give-up,
// drain — at zero. The deque freelist and the lazily seeded per-worker
// rngs make every structure reusable once the first cycle has warmed
// them up (AllocsPerRun runs the closure once before measuring).
func TestStealCycleAllocs(t *testing.T) {
	pl := intDFD(2, 11)
	fail := false
	steal := func(w int) int {
		for i := 0; i < 1000; i++ {
			if x, ok := pl.Acquire(w); ok {
				return x
			}
		}
		fail = true
		return 0
	}
	cycle := func() {
		pl.Seed(10)
		x := steal(0) // root deque drains and is taken over inside Acquire
		pushOwn(pl, 0, x+1)
		pushOwn(pl, 0, x+2)
		steal(1)      // takes x+1 from the bottom of worker 0's deque
		giveUp(pl, 1) // empty deque retired to the freelist
		pl.Next(0)    // x+2
		pl.Next(0)    // empty: drops ownership, retires the deque
		if pl.HasWork() || pl.Deques() != 0 {
			fail = true
		}
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if fail {
		t.Fatal("cycle did not complete as scripted")
	}
	if allocs >= 1 {
		t.Fatalf("steady-state steal cycle allocates %.1f allocs/run, want 0", allocs)
	}
}
