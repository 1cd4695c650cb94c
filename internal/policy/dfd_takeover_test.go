package policy

// Tests of the steal that drains an unowned victim: the thief takes the
// victim over in place, under a fresh ID, where it used to place a new
// deque beside it and retire the victim.

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dfdeques/internal/rtrace"
)

// TestSharedTakeoverKeepsTheDeque: a steal that drains an unowned deque
// leaves the thief owning that same deque at the same index of R, under
// the next ID, with the records a fresh deque and the victim's retirement
// would make and the freelist untouched — through Acquire and through both
// arms of the simulator's StealFrom. A victim that is owned, or keeps
// items, still gets a fresh deque to its right. Either way the ready
// count, the steal counts and the high-water read what the
// insert-and-retire path gave.
func TestSharedTakeoverKeepsTheDeque(t *testing.T) {
	// newPool lays out R = [{1} {30} {40}], three unowned one-item deques
	// with IDs 1, 2 and 3.
	newPool := func() (*DFD[int], *rtrace.Recorder) {
		rec := rtrace.NewRecorder(3, 64)
		pl := intDFD(3, 1)
		instrument(pl, rec)
		pl.Seed(1)
		pl.Inject(30)
		pl.Inject(40)
		return pl, rec
	}
	stealFrom := func(fromTop bool) func(pl *DFD[int]) int {
		return func(pl *DFD[int]) int { return stealAt(t, pl, 0, 1, fromTop) }
	}
	for _, tc := range []struct {
		name  string
		steal func(pl *DFD[int]) int
	}{
		{"Steal", func(pl *DFD[int]) int { return sharedStealUntil(t, pl, 0) }},
		{"StealFrom", stealFrom(false)},
		{"StealFrom/fromTop", stealFrom(true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, rec := newPool()
			before := [3]*rdeque[int]{pl.r[0], pl.r[1], pl.r[2]}
			mark := rec.Len()
			x := tc.steal(pl)
			c := map[int]int{1: 0, 30: 1, 40: 2}[x]
			victim, old := before[c], int64(c+1)
			if pl.r[c] != victim || pl.lanes[0].own != victim || victim.owner != 0 || pl.Deques() != 3 {
				t.Fatalf("R[%d] = %p owned by %d, w0 owns %p, %d deques: want the victim %p, owned by w0, and 3",
					c, pl.r[c], pl.r[c].owner, pl.lanes[0].own, pl.Deques(), victim)
			}
			if victim.id != 4 {
				t.Errorf("ID = %d, want 4, the next one drawn", victim.id)
			}
			var got [][4]int64
			for _, e := range rec.Events()[mark:] {
				if e.Kind != rtrace.EvStealAttempt || e.A >= 0 { // Acquire's misses come first
					got = append(got, [4]int64{int64(e.Kind), e.A, e.B, e.C})
				}
			}
			want := [][4]int64{
				{int64(rtrace.EvStealAttempt), old, 0, 0},
				{int64(rtrace.EvSteal), int64(x), old, 4},
				{int64(rtrace.EvDequeRetire), old, 0, 0},
				{int64(rtrace.EvDispatch), int64(x), rtrace.SrcAcquire, 0},
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("records = %v, want %v", got, want)
			}
			if len(pl.free) != 0 {
				t.Errorf("freelist holds %d deques, want 0", len(pl.free))
			}
			if st := pl.Stats(); st.Steals != 1 || pl.ready.Load() != 2 || st.MaxDeques != 3 {
				t.Errorf("steals %d, ready %d, MaxDeques %d: want 1, 2, 3", st.Steals, pl.ready.Load(), st.MaxDeques)
			}
			// The adopter works its deque from where the thief left it.
			pushOwn(pl, 0, x+2)
			pushOwn(pl, 0, x+1)
			if y, ok := pl.Next(0); !ok || y != x+1 {
				t.Fatalf("Next = %d,%v, want %d", y, ok, x+1)
			}
			if got := victim.Items(); !reflect.DeepEqual(got, []int{x + 2}) {
				t.Errorf("the taken-over deque holds %v, want [%d]", got, x+2)
			}
		})
	}

	t.Run("owned-or-kept", func(t *testing.T) {
		pl, _ := newPool()
		stealAt(t, pl, 0, 1, false) // w0 takes {30} over
		pushOwn(pl, 0, 33)
		pushOwn(pl, 0, 32)
		// Owned: w1's steal of the bottom puts a fresh deque right of w0's.
		owned := pl.r[1]
		if x := stealAt(t, pl, 1, 1, false); x != 33 {
			t.Fatalf("stole %d from the owned deque, want 33", x)
		}
		nd := pl.r[2]
		if nd == owned || pl.lanes[1].own != nd || nd.owner != 1 || nd.id != 5 ||
			pl.r[1] != owned || pl.lanes[0].own != owned || owned.owner != 0 {
			t.Fatalf("w1 owns %p (ID %d) at R[2], w0 owns %p at R[1]: want a fresh deque, ID 5, right of w0's %p",
				pl.lanes[1].own, nd.id, pl.r[1], owned)
		}
		// Kept: w1 forks two and gives its deque up; w2's steal of the
		// bottom leaves one behind, so the unowned victim stays, and w2's
		// fresh deque goes to its right.
		pushOwn(pl, 1, 35)
		pushOwn(pl, 1, 34)
		giveUp(pl, 1)
		if x := stealAt(t, pl, 2, 2, false); x != 35 {
			t.Fatalf("stole %d from the given-up deque, want 35", x)
		}
		if nw := pl.r[3]; pl.r[2] != nd || nd.owner != -1 || pl.lanes[2].own != nw || nw.id != 6 {
			t.Fatalf("R[2] = %p owned by %d, w2 owns %p: want the victim %p left unowned, and a fresh deque, ID 6, at R[3]",
				pl.r[2], nd.owner, pl.lanes[2].own, nd)
		}
		if got, want := sharedLayout(pl), [][]int{{1}, {32}, {34}, nil, {40}}; !reflect.DeepEqual(got, want) {
			t.Errorf("R = %v, want %v", got, want)
		}
		if st := pl.Stats(); st.Steals != 3 || st.FailedSteals != 0 || pl.ready.Load() != 4 || st.MaxDeques != 5 {
			t.Errorf("steals %d, failed %d, ready %d, MaxDeques %d: want 3, 0, 4, 5",
				st.Steals, st.FailedSteals, pl.ready.Load(), st.MaxDeques)
		}
		if err := pl.CheckInvariants(func(int) (int, bool) { return 0, false }); err != nil {
			t.Fatal(err)
		}
	})
}

// takeovers is a probe that counts the steals that took their victim over:
// the thief's EvSteal followed, on its lane, by the victim's retirement.
// It reads records, so it expands the policy's bursts. Lane w is written
// by worker w alone.
type takeovers struct {
	victim []int64 // the last victim per lane
	n      atomic.Int64
}

func (p *takeovers) Event(w int, k rtrace.Kind, a, b, c int64) {
	if w < 0 {
		return
	}
	for _, e := range rtrace.Expand(nil, rtrace.Event{Kind: k, W: int32(w), A: a, B: b, C: c}) {
		switch {
		case e.Kind == rtrace.EvSteal:
			p.victim[w] = e.B
		case e.Kind == rtrace.EvDequeRetire && p.victim[w] == e.A:
			p.n.Add(1)
		}
	}
}

// TestSharedTakeoverRacesThieves: adopters make their deque stealable with
// their thread alone in it (giveUpSteal), so their steal often drains it or
// another lone thread's deque and takes that over. At once they push the
// thread back and fork a child on top, then claim the child (JoinPop) and
// the thread (Next) — the first pushes and pops on the taken-over deque —
// while plain thieves steal bottoms from it, all under the concurrent
// Lemma 3.1 checker. Every child is claimed once, by its parent or by a
// thief, and no circulating thread is lost.
func TestSharedTakeoverRacesThieves(t *testing.T) {
	const adopters, thieves, items, rounds = 2, 2, 6, 400
	const workers = adopters + thieves
	pl := intDFD(workers, 16)
	probe := &takeovers{victim: make([]int64, workers)}
	instrument(pl, probe)
	// A thread's children rank between it and everything left of it, and
	// each below the ones it forked before: a thread taken from under its
	// child forks its next one on a deque right of the first.
	const gap = 1 << 20
	for v := 1; v <= items; v++ {
		pl.Inject(v * gap)
	}

	stopChecker := checkWhileRunning(pl)

	var wg sync.WaitGroup
	var forked, joined, stolen atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x, have := 0, false
			for r := 0; r < rounds; r++ {
				for tries := 0; !have; tries++ {
					if x, have = pl.Acquire(w); !have && tries > 1<<16 {
						return // the others hold everything
					}
				}
				if x%gap != 0 { // a child: it runs to completion
					stolen.Add(1)
					if _, ok := pl.Next(w); ok {
						t.Error("a stolen child's deque was not empty")
					}
					have = false
					continue
				}
				pushOwn(pl, w, x)
				if w >= adopters {
					giveUp(pl, w)
					have = false
					continue
				}
				child := x - gap + int(forked.Add(1))
				pushOwn(pl, w, child)
				runtime.Gosched() // the child's window: let a thief in
				if pl.JoinPop(w, x, child) {
					joined.Add(1)
				}
				if y, ok := pl.Next(w); !ok {
					have = false // a thief took the thread; the empty deque is retired
					continue
				} else if y != x {
					t.Errorf("w%d popped %d, want its thread %d", w, y, x)
				}
				pushOwn(pl, w, x)
				x, have = giveUpSteal(pl, w)
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
	if probe.n.Load() == 0 {
		t.Error("no steal took its victim over")
	}
	if f, j, s := forked.Load(), joined.Load(), stolen.Load(); j+s != f {
		t.Errorf("%d children forked, %d claimed by their parent and %d stolen", f, j, s)
	}
	seen := map[int]bool{}
	for _, d := range sharedLayout(pl) {
		for _, x := range d {
			seen[x] = true
		}
	}
	if len(seen) != items {
		t.Errorf("%d distinct threads left in R, want %d: %v", len(seen), items, sharedLayout(pl))
	}
	t.Logf("%d takeovers, %d children claimed at the join, %d stolen", probe.n.Load(), joined.Load(), stolen.Load())
}
