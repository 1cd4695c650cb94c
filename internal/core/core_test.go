package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dfdeques/internal/om"
)

// intPool builds a pool over ints where smaller = higher priority.
func intPool(p int, seed int64) *Pool[int] {
	return NewPool(p, func(a, b int) bool { return a < b }, rand.New(rand.NewSource(seed)))
}

func TestSeedAndFirstSteal(t *testing.T) {
	pl := intPool(4, 1)
	pl.Seed(10)
	if !pl.HasWork() {
		t.Fatal("seeded pool reports no work")
	}
	got := stealUntil(t, pl, 0)
	if got != 10 {
		t.Fatalf("stole %d, want 10", got)
	}
	if !pl.Owns(0) {
		t.Fatal("stealer should own a deque")
	}
	if pl.HasWork() {
		t.Fatal("pool should be drained")
	}
}

// stealUntil retries until the random victim pick succeeds.
func stealUntil(t *testing.T, pl *Pool[int], w int) int {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if x, ok := pl.Steal(w); ok {
			return x
		}
	}
	t.Fatal("steal never succeeded")
	return 0
}

func TestPushPopOwnLIFO(t *testing.T) {
	pl := intPool(2, 2)
	pl.Seed(1)
	stealUntil(t, pl, 0)
	pl.PushOwn(0, 5)
	pl.PushOwn(0, 4) // higher priority pushed later (deeper fork)
	if x, ok := pl.PopOwn(0); !ok || x != 4 {
		t.Fatalf("PopOwn = %d,%v want 4", x, ok)
	}
	if x, ok := pl.PopOwn(0); !ok || x != 5 {
		t.Fatalf("PopOwn = %d,%v want 5", x, ok)
	}
	// Third pop: empty deque is deleted, worker deque-less.
	if _, ok := pl.PopOwn(0); ok {
		t.Fatal("PopOwn on empty should fail")
	}
	if pl.Owns(0) {
		t.Fatal("deque should have been deleted")
	}
	if pl.Deques() != 0 {
		t.Fatalf("R should be empty, has %d", pl.Deques())
	}
}

func TestGiveUpLeavesDequeStealable(t *testing.T) {
	pl := intPool(2, 3)
	pl.Seed(1)
	stealUntil(t, pl, 0)
	pl.PushOwn(0, 7)
	pl.GiveUp(0)
	if pl.Owns(0) {
		t.Fatal("GiveUp did not release ownership")
	}
	if !pl.HasWork() {
		t.Fatal("given-up deque should remain stealable")
	}
	// Worker 1 steals the abandoned thread; the emptied unowned deque is
	// deleted.
	got := stealUntil(t, pl, 1)
	if got != 7 {
		t.Fatalf("stole %d, want 7", got)
	}
	if pl.Deques() != 1 { // only worker 1's new deque remains
		t.Fatalf("deques = %d, want 1", pl.Deques())
	}
}

func TestGiveUpEmptyDequeDeletes(t *testing.T) {
	pl := intPool(2, 4)
	pl.Seed(1)
	stealUntil(t, pl, 0)
	pl.GiveUp(0) // empty deque: must be deleted, not left in R
	if pl.Deques() != 0 {
		t.Fatalf("deques = %d, want 0", pl.Deques())
	}
}

func TestStealFromBottom(t *testing.T) {
	pl := intPool(2, 5)
	pl.Seed(1)
	stealUntil(t, pl, 0)
	pl.PushOwn(0, 3)
	pl.PushOwn(0, 2)
	// Worker 1 steals: must get the bottom (lowest-priority) thread, 3.
	got := stealUntil(t, pl, 1)
	if got != 3 {
		t.Fatalf("thief got %d, want bottom thread 3", got)
	}
}

func TestStealPanicsWhileOwning(t *testing.T) {
	pl := intPool(2, 6)
	pl.Seed(1)
	stealUntil(t, pl, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pl.Steal(0)
}

func TestPushOwnWithoutDequePanics(t *testing.T) {
	pl := intPool(2, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pl.PushOwn(0, 1)
}

func TestPushWokenOrdering(t *testing.T) {
	pl := intPool(4, 8)
	pl.Seed(5)
	stealUntil(t, pl, 0)
	pl.PushOwn(0, 6)
	pl.PushWoken(3) // higher priority than 6: must land left of it
	pl.PushWoken(9) // lower: lands at the right end
	if err := pl.CheckInvariants(func(w int) (int, bool) {
		if w == 0 {
			return 5, true
		}
		return 0, false
	}); err != nil {
		t.Fatal(err)
	}
	// Highest-priority stealable thread overall should be 3: verify a
	// leftmost-deque steal yields it.
	for i := 0; i < 1000; i++ {
		if x, ok := pl.Steal(1); ok {
			if x != 3 && x != 6 && x != 9 {
				t.Fatalf("stole unexpected %d", x)
			}
			return
		}
	}
	t.Fatal("no steal succeeded")
}

func TestMaxDequesTracksHighWater(t *testing.T) {
	pl := intPool(8, 9)
	pl.Seed(1)
	stealUntil(t, pl, 0)
	for i := 2; i < 10; i++ {
		pl.PushOwn(0, i)
	}
	pl.GiveUp(0)
	for w := 1; w < 5; w++ {
		stealUntil(t, pl, w)
	}
	if pl.MaxDeques() < 4 {
		t.Fatalf("MaxDeques = %d, want ≥ 4", pl.MaxDeques())
	}
}

// TestQuickRandomOpsInvariants drives the pool with random scripts of the
// operations a legal scheduler performs — a forked child's priority sits
// immediately above its parent's in the 1DF order, maintained with the
// same order-maintenance list the runtimes use — and checks the Lemma 3.1
// invariants after every step.
func TestQuickRandomOpsInvariants(t *testing.T) {
	f := func(script []uint8, seed int64) bool {
		const p = 4
		var prios om.List
		pl := NewPool(p, om.Less, rand.New(rand.NewSource(seed)))
		pl.Seed(prios.PushBack())
		curr := make([]*om.Record, p) // nil = idle
		for _, b := range script {
			w := int(b) % p
			switch (b / 4) % 4 {
			case 0: // steal if idle and deque-less
				if curr[w] == nil && !pl.Owns(w) {
					if x, ok := pl.Steal(w); ok {
						curr[w] = x
					}
				}
			case 1: // fork: push the parent, run the child, whose priority
				// is immediately above the parent's
				if curr[w] != nil && pl.Owns(w) {
					pl.PushOwn(w, curr[w])
					curr[w] = prios.InsertBefore(curr[w])
				}
			case 2: // terminate/suspend: pop own or go idle
				if curr[w] != nil && pl.Owns(w) {
					if x, ok := pl.PopOwn(w); ok {
						curr[w] = x
					} else {
						curr[w] = nil
					}
				}
			case 3: // quota exhaustion: push back and give up
				if curr[w] != nil && pl.Owns(w) {
					pl.PushOwn(w, curr[w])
					pl.GiveUp(w)
					curr[w] = nil
				}
			}
			err := pl.CheckInvariants(func(w int) (*om.Record, bool) {
				return curr[w], curr[w] != nil
			})
			if err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
