package policy

// Tests for DFD's serial-engine entries, BeginRound and StealFrom,
// as the simulator drives them: one caller, rounds of arbitrated steals.

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// stealAt starts a new round and has worker w steal from position c of R,
// failing the test if the steal does not succeed.
func stealAt(t *testing.T, pl *DFD[int], w, c int, fromTop bool) int {
	t.Helper()
	pl.BeginRound(0)
	x, ok := pl.StealFrom(w, c, fromTop)
	if !ok {
		t.Fatalf("StealFrom(%d, %d, %v) failed on R = %v", w, c, fromTop, sharedLayout(pl))
	}
	return x
}

// census counts the threads in R and reports whether R holds an empty
// unowned deque. Quiescent callers only.
func census(pl *DFD[*PrioNode]) (n int, emptyUnowned bool) {
	for _, d := range pl.r {
		k := len(d.Items())
		n += k
		emptyUnowned = emptyUnowned || (k == 0 && d.owner == -1)
	}
	return n, emptyUnowned
}

func TestSeedAndFirstSteal(t *testing.T) {
	pl := intDFD(4, 1)
	pl.Seed(10)
	if !pl.HasWork() {
		t.Fatal("seeded pool reports no work")
	}
	pl.BeginRound(0)
	if _, ok := pl.StealFrom(0, 1, false); ok {
		t.Fatal("StealFrom past the end of R succeeded")
	}
	if got := stealAt(t, pl, 0, 0, false); got != 10 {
		t.Fatalf("stole %d, want 10", got)
	}
	if !owns(pl, 0) {
		t.Fatal("stealer should own a deque")
	}
	if pl.HasWork() {
		t.Fatal("pool should be drained")
	}
}

func TestPushPopOwnLIFO(t *testing.T) {
	pl := intDFD(2, 2)
	pl.Seed(1)
	stealAt(t, pl, 0, 0, false)
	pushOwn(pl, 0, 5)
	pushOwn(pl, 0, 4) // higher priority pushed later (deeper fork)
	if x, ok := pl.Next(0); !ok || x != 4 {
		t.Fatalf("Next = %d,%v want 4", x, ok)
	}
	if x, ok := pl.Next(0); !ok || x != 5 {
		t.Fatalf("Next = %d,%v want 5", x, ok)
	}
	// Third pop: empty deque is deleted, worker deque-less.
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

func TestGiveUpLeavesDequeStealable(t *testing.T) {
	pl := intDFD(2, 3)
	pl.Seed(1)
	stealAt(t, pl, 0, 0, false)
	pushOwn(pl, 0, 7)
	giveUp(pl, 0)
	if owns(pl, 0) {
		t.Fatal("giveUp did not release ownership")
	}
	if !pl.HasWork() {
		t.Fatal("given-up deque should remain stealable")
	}
	// Worker 1 steals the abandoned thread; the emptied unowned deque is
	// deleted.
	if got := stealAt(t, pl, 1, 0, false); got != 7 {
		t.Fatalf("stole %d, want 7", got)
	}
	if pl.Deques() != 1 { // only worker 1's new deque remains
		t.Fatalf("deques = %d, want 1", pl.Deques())
	}
}

func TestGiveUpEmptyDequeDeletes(t *testing.T) {
	pl := intDFD(2, 4)
	pl.Seed(1)
	stealAt(t, pl, 0, 0, false)
	giveUp(pl, 0) // empty deque: must be deleted, not left in R
	if pl.Deques() != 0 {
		t.Fatalf("deques = %d, want 0", pl.Deques())
	}
}

// TestStealFromBottom pins the §4.1 arbitration: a thief takes the
// victim's bottom thread, at most one StealFrom per deque succeeds in a
// round, and the next round re-arms the deque.
func TestStealFromBottom(t *testing.T) {
	pl := intDFD(3, 5)
	pl.Seed(1)
	stealAt(t, pl, 0, 0, false)
	pushOwn(pl, 0, 3)
	pushOwn(pl, 0, 2)
	// Worker 1 steals: must get the bottom (lowest-priority) thread, 3.
	if got := stealAt(t, pl, 1, 0, false); got != 3 {
		t.Fatalf("thief got %d, want bottom thread 3", got)
	}
	if x, ok := pl.StealFrom(2, 0, false); ok {
		t.Fatalf("a second steal from deque 0 in one round took %d", x)
	}
	if got := stealAt(t, pl, 2, 0, false); got != 2 {
		t.Fatalf("after BeginRound the thief got %d, want 2", got)
	}
	// Each thief's deque sits right of its victim: worker 2's, then
	// worker 1's.
	if pl.r[1] != pl.lanes[2].own || pl.r[2] != pl.lanes[1].own {
		t.Fatal("thieves' deques are not right of the victim, latest first")
	}
}

// TestStealFromTopLandsLeft pins the steal-from-top ablation: the thief
// takes the victim's newest thread, its deque goes to the victim's left,
// and the ready count, hence HasWork, stays exact.
func TestStealFromTopLandsLeft(t *testing.T) {
	pl := intDFD(3, 6)
	pl.Seed(1)
	stealAt(t, pl, 0, 0, false)
	pushOwn(pl, 0, 3)
	pushOwn(pl, 0, 2)
	if got := stealAt(t, pl, 1, 0, true); got != 2 {
		t.Fatalf("top thief got %d, want the newest thread 2", got)
	}
	if pl.r[0] != pl.lanes[1].own || pl.r[1] != pl.lanes[0].own {
		t.Fatal("the thief's deque is not left of its victim")
	}
	if got, want := sharedLayout(pl), [][]int{nil, {3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("R = %v, want %v", got, want)
	}
	giveUp(pl, 0)
	if !pl.HasWork() {
		t.Fatal("the given-up 3 is not counted as ready")
	}
	if got := stealAt(t, pl, 2, 1, true); got != 3 {
		t.Fatalf("top thief got %d, want 3", got)
	}
	// The drained, given-up victim is w2's now; nothing is left to steal.
	if pl.HasWork() || pl.Deques() != 2 {
		t.Fatalf("HasWork = %v, Deques = %d, want false, 2", pl.HasWork(), pl.Deques())
	}
}

func TestStealPanicsWhileOwning(t *testing.T) {
	pl := intDFD(2, 6)
	pl.Seed(1)
	stealAt(t, pl, 0, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pl.StealFrom(0, 0, false)
}

func TestPushOwnWithoutDequePanics(t *testing.T) {
	pl := intDFD(2, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pushOwn(pl, 0, 1)
}

// TestPushWokenOrdering pins the one placement rule both engines use: a
// woken thread is compared only against unowned deques and the waker's
// own, so it skips another worker's deque even when it outranks that
// deque's top.
func TestPushWokenOrdering(t *testing.T) {
	pl := intDFD(4, 8)
	pl.Seed(5)
	stealAt(t, pl, 0, 0, false)
	pushOwn(pl, 0, 6)
	pl.Wake(1, 3) // outranks 6, but 6's deque is owned: right end
	pl.Wake(1, 9) // below the unowned 3: right end
	pl.Wake(1, 4) // outranks the unowned 9 only: left of it
	if got, want := sharedLayout(pl), [][]int{{6}, {3}, {4}, {9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("R = %v, want %v", got, want)
	}
	// Once given up, 6's deque is compared: a woken 2 lands left of it.
	giveUp(pl, 0)
	pl.Wake(1, 2)
	if got, want := sharedLayout(pl), [][]int{{2}, {6}, {3}, {4}, {9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("R = %v, want %v", got, want)
	}
}

func TestMaxDequesTracksHighWater(t *testing.T) {
	pl := intDFD(8, 9)
	pl.Seed(1)
	stealAt(t, pl, 0, 0, false)
	for i := 2; i < 10; i++ {
		pushOwn(pl, 0, i)
	}
	giveUp(pl, 0)
	for w := 1; w < 5; w++ {
		stealAt(t, pl, w, 0, false)
	}
	if pl.Stats().MaxDeques != 5 {
		t.Fatalf("MaxDeques = %d, want 5 (the given-up deque and four thieves')", pl.Stats().MaxDeques)
	}
	for w := 1; w < 5; w++ {
		for owns(pl, w) {
			pl.Next(w)
		}
	}
	if pl.Deques() != 1 || pl.Stats().MaxDeques != 5 {
		t.Fatalf("Deques = %d, MaxDeques = %d, want 1, 5", pl.Deques(), pl.Stats().MaxDeques)
	}
}

// TestQuickRandomOpsInvariants drives the pool with random scripts of the
// operations a legal scheduler performs — a forked child's priority sits
// immediately above its parent's in the 1DF order, read off the script's
// fork tree by dag.Before — through both engines' entries: the runtime's
// Acquire and the simulator's rounds of StealFrom, from the bottom and, as
// the ablation, from the top. After every step the Lemma 3.1 invariants
// must hold, R must hold no empty unowned deque, and HasWork must be
// exact. A steal from the top gives up the left-to-right order between
// deques (clause 3) on purpose — that is what the ablation measures — so
// once a script took one, only clause 3 may fail.
func TestQuickRandomOpsInvariants(t *testing.T) {
	f := func(script []uint8, seed int64) bool {
		const p = 4
		var prios Prios // ChildFirst: a fork lands right before its forker
		pl := NewDFD(p, 0, prios.Less, seed)
		pl.Seed(prios.Root())
		ready := 1                   // threads in R, counted independently
		curr := make([]*PrioNode, p) // nil = idle
		ablated := false
		rng := rand.New(rand.NewSource(seed))
		for _, b := range script {
			w := int(b) % p
			switch (b / 4) % 7 {
			case 0: // steal if idle and deque-less
				if curr[w] == nil && !owns(pl, w) {
					if x, ok := pl.Acquire(w); ok {
						curr[w] = x
						ready--
					}
				}
			case 1: // fork: push the parent, run the child, whose priority
				// is immediately above the parent's
				if curr[w] != nil && owns(pl, w) {
					pushOwn(pl, w, curr[w])
					curr[w] = prios.Fork(curr[w])
					ready++
				}
			case 2: // terminate/suspend: pop own or go idle
				if curr[w] != nil && owns(pl, w) {
					if x, ok := pl.Next(w); ok {
						curr[w] = x
						ready--
					} else {
						curr[w] = nil
					}
				}
			case 3: // quota exhaustion: push back and give up
				if curr[w] != nil && owns(pl, w) {
					pushOwn(pl, w, curr[w])
					giveUp(pl, w)
					curr[w] = nil
					ready++
				}
			case 4: // a new simulator timestep
				pl.BeginRound(0)
			case 5, 6: // an arbitrated steal, from the bottom or the top,
				// with a pick that may miss R
				if curr[w] == nil && !owns(pl, w) {
					fromTop := b/4%7 == 6
					if x, ok := pl.StealFrom(w, rng.Intn(p+1), fromTop); ok {
						curr[w] = x
						ready--
						ablated = ablated || fromTop
					}
				}
			}
			err := pl.CheckInvariants(func(w int) (*PrioNode, bool) {
				return curr[w], curr[w] != nil
			})
			if err != nil && !(ablated && strings.Contains(err.Error(), "lemma 3.1(3)")) {
				t.Log(err)
				return false
			}
			if n, emptyUnowned := census(pl); n != ready || emptyUnowned || pl.HasWork() != (ready > 0) {
				t.Logf("R holds %d threads, want %d; empty unowned deque: %v; HasWork = %v", n, ready, emptyUnowned, pl.HasWork())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
