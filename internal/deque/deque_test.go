package deque

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDequeLIFOTop(t *testing.T) {
	d := NewDeque[int]()
	for i := 0; i < 5; i++ {
		d.PushTop(i)
	}
	for i := 4; i >= 0; i-- {
		x, ok := d.PopTop()
		if !ok || x != i {
			t.Fatalf("PopTop = %d,%v want %d,true", x, ok, i)
		}
	}
	if _, ok := d.PopTop(); ok {
		t.Fatal("PopTop on empty deque succeeded")
	}
}

func TestDequeBottomIsOldest(t *testing.T) {
	d := NewDeque[string]()
	d.PushTop("oldest")
	d.PushTop("middle")
	d.PushTop("newest")
	x, ok := d.PopBottom()
	if !ok || x != "oldest" {
		t.Fatalf("PopBottom = %q, want oldest", x)
	}
	if top, _ := d.PeekTop(); top != "newest" {
		t.Fatalf("PeekTop = %q, want newest", top)
	}
	if bot := d.Items()[0]; bot != "middle" {
		t.Fatalf("bottom = %q, want middle", bot)
	}
}

func TestDequeEmptyOps(t *testing.T) {
	d := NewDeque[int]()
	if !d.Empty() || d.Len() != 0 {
		t.Fatal("new deque not empty")
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("PopBottom on empty succeeded")
	}
	if _, ok := d.PeekTop(); ok {
		t.Fatal("PeekTop on empty succeeded")
	}
	if d.InList() || d.Pos() != -1 {
		t.Fatal("stand-alone deque claims list membership")
	}
}

// TestDequeMixedAgainstReference runs a random op sequence against a slice
// reference model.
func TestDequeMixedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDeque[int]()
	var ref []int
	for step := 0; step < 20000; step++ {
		switch rng.Intn(3) {
		case 0:
			d.PushTop(step)
			ref = append(ref, step)
		case 1:
			x, ok := d.PopTop()
			if len(ref) == 0 {
				if ok {
					t.Fatal("PopTop succeeded on empty")
				}
			} else {
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if !ok || x != want {
					t.Fatalf("PopTop = %d,%v want %d", x, ok, want)
				}
			}
		case 2:
			x, ok := d.PopBottom()
			if len(ref) == 0 {
				if ok {
					t.Fatal("PopBottom succeeded on empty")
				}
			} else {
				want := ref[0]
				ref = ref[1:]
				if !ok || x != want {
					t.Fatalf("PopBottom = %d,%v want %d", x, ok, want)
				}
			}
		}
		if d.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", d.Len(), len(ref))
		}
	}
}

func TestListInsertRightOrdering(t *testing.T) {
	var r List[int]
	a, b, c, z := NewDeque[int](), NewDeque[int](), NewDeque[int](), NewDeque[int]()
	r.PushLeftReuse(a)
	r.InsertRightReuse(a, b)
	r.InsertRightReuse(a, c) // lands between a and b
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Kth(0) != a || r.Kth(1) != c || r.Kth(2) != b {
		t.Fatal("InsertRightReuse produced wrong order")
	}
	mustPanic(t, func() { r.InsertRightReuse(a, b) }) // b is already in R
	mustPanic(t, func() { r.PushLeftReuse(c) })
	r.PushLeftReuse(z)
	if r.Kth(0) != z || a.Pos() != 1 {
		t.Fatal("PushLeftReuse did not insert at the left end")
	}
	r.Delete(z)
	if a.Pos() != 0 || c.Pos() != 1 || b.Pos() != 2 {
		t.Fatal("positions not maintained")
	}
}

func TestListDelete(t *testing.T) {
	var r List[int]
	a := r.PushRight()
	b := r.PushRight()
	c := r.PushRight()
	r.Delete(b)
	if r.Len() != 2 || r.Kth(0) != a || r.Kth(1) != c {
		t.Fatal("Delete broke order")
	}
	if c.Pos() != 1 {
		t.Fatalf("c.Pos = %d, want 1", c.Pos())
	}
	if b.InList() {
		t.Fatal("deleted deque still claims membership")
	}
	mustPanic(t, func() { r.Delete(b) })
}

func TestCrossListInsertPanics(t *testing.T) {
	var r1, r2 List[int]
	a := r1.PushRight()
	_ = r2.PushRight()
	mustPanic(t, func() { r2.InsertRightReuse(a, NewDeque[int]()) })
}

// TestListPositionsQuick property-checks that after an arbitrary script of
// inserts and deletes, each deque's recorded position matches its actual
// index.
func TestListPositionsQuick(t *testing.T) {
	f := func(script []uint8) bool {
		var r List[int]
		var all []*Deque[int]
		for _, b := range script {
			switch {
			case r.Len() == 0 || b%4 == 0:
				d := NewDeque[int]()
				r.PushLeftReuse(d)
				all = append(all, d)
			case b%4 == 1:
				all = append(all, r.PushRight())
			case b%4 == 2:
				d := NewDeque[int]()
				r.InsertRightReuse(r.Kth(int(b)%r.Len()), d)
				all = append(all, d)
			default:
				d := r.Kth(int(b) % r.Len())
				r.Delete(d)
			}
		}
		for i := 0; i < r.Len(); i++ {
			if r.Kth(i).Pos() != i {
				return false
			}
		}
		inList := 0
		for _, d := range all {
			if d.InList() {
				inList++
			}
		}
		return inList == r.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func BenchmarkPushPopTop(b *testing.B) {
	d := NewDeque[int]()
	for i := 0; i < b.N; i++ {
		d.PushTop(i)
		if i%2 == 1 {
			d.PopTop()
			d.PopTop()
		}
	}
}

// liveSlots counts slots in d's backing array that still hold a non-zero
// T — the stale references the scrubbing contract is about (white-box).
func liveSlots[T comparable](d *Deque[T]) int {
	ap := d.arr.Load()
	if ap == nil {
		return 0
	}
	var zero T
	n := 0
	for i := range *ap {
		if x, ok := (*ap)[i].Load().(T); ok && x != zero {
			n++
		}
	}
	return n
}

// TestPopZeroesVacatedSlots pins the memory-retention contract of the
// lock-free deque: the owner zeroes the slot of every item it pops
// immediately, and slots vacated by thieves (PopBottom) are scrubbed by
// the owner's next operation that observes them — here the empty
// transition of a final PopTop. Retention in the backing array would
// directly skew the paper's space measurements.
func TestPopZeroesVacatedSlots(t *testing.T) {
	d := NewDeque[*int]()
	const n = 8
	for i := 0; i < n; i++ {
		d.PushTop(new(int))
	}
	for i := 0; i < n/2; i++ {
		if _, ok := d.PopTop(); !ok {
			t.Fatal("PopTop failed")
		}
	}
	if got := liveSlots(d); got != n/2 {
		t.Fatalf("after owner pops: %d live slots, want %d (owner pops zero eagerly)", got, n/2)
	}
	for i := 0; i < n/2; i++ {
		if _, ok := d.PopBottom(); !ok {
			t.Fatal("PopBottom failed")
		}
	}
	if !d.Empty() {
		t.Fatalf("deque not drained: %d left", d.Len())
	}
	// Thief-vacated slots are scrubbed lazily: the owner's next empty
	// transition sweeps them.
	if _, ok := d.PopTop(); ok {
		t.Fatal("PopTop on drained deque succeeded")
	}
	if got := liveSlots(d); got != 0 {
		t.Errorf("%d vacated slots still hold live pointers after the owner's empty transition", got)
	}
	// A push after steals also sweeps everything below the new bottom.
	d2 := NewDeque[*int]()
	for i := 0; i < 4; i++ {
		d2.PushTop(new(int))
	}
	for i := 0; i < 3; i++ {
		d2.PopBottom()
	}
	d2.PushTop(new(int))
	if got := liveSlots(d2); got != 2 {
		t.Errorf("after steal+push: %d live slots, want 2 (lazy sweep below bottom)", got)
	}
}

// TestResetClearsState pins Reset's freelist contract: a recycled deque
// is empty, scrubbed, unowned, and detached — and its generation tag is
// bumped, not zeroed, so Reset itself is an ABA barrier (see
// TestStaleThiefCASFailsAcrossReset).
func TestResetClearsState(t *testing.T) {
	var l List[int]
	d := l.PushRight()
	d.Owner = 3
	d.ID = 17
	d.PushTop(1)
	tagBefore, _ := unpack(d.bottom.Load())
	l.Delete(d)
	d.Reset()
	if d.Len() != 0 || d.Owner != -1 || d.ID != 0 || d.InList() || d.Pos() != -1 {
		t.Fatalf("Reset left state behind: len=%d owner=%d id=%d inlist=%v pos=%d",
			d.Len(), d.Owner, d.ID, d.InList(), d.Pos())
	}
	if got := liveSlots(d); got != 0 {
		t.Fatalf("Reset left %d live slots behind", got)
	}
	if tagAfter, bot := unpack(d.bottom.Load()); tagAfter != tagBefore+1 || bot != 0 {
		t.Fatalf("Reset word = (tag %d, bot %d), want (tag %d, bot 0)", tagAfter, bot, tagBefore+1)
	}
	// The recycled deque is immediately usable.
	d.PushTop(42)
	if x, ok := d.PopTop(); !ok || x != 42 {
		t.Fatalf("recycled deque PopTop = (%d, %v), want (42, true)", x, ok)
	}
}
