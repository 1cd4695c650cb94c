package deque

import (
	"math/rand"
	"testing"
)

func TestDequeLIFOTop(t *testing.T) {
	d := new(Deque[int])
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
	d := new(Deque[string])
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
	d := new(Deque[int])
	if !d.Empty() || d.Len() != 0 {
		t.Fatal("new deque not empty")
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("PopBottom on empty succeeded")
	}
	if _, ok := d.PeekTop(); ok {
		t.Fatal("PeekTop on empty succeeded")
	}
}

// TestDequeMixedAgainstReference runs a random op sequence against a slice
// reference model.
func TestDequeMixedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := new(Deque[int])
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

func BenchmarkPushPopTop(b *testing.B) {
	d := new(Deque[int])
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
	d := new(Deque[*int])
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
	d2 := new(Deque[*int])
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
// is empty and scrubbed — and its generation tag is bumped, not zeroed, so
// Reset itself is an ABA barrier (see TestStaleThiefCASFailsAcrossReset).
func TestResetClearsState(t *testing.T) {
	d := new(Deque[int])
	d.PushTop(1)
	tagBefore, _ := unpack(d.bottom.Load())
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("Reset left %d items behind", d.Len())
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
