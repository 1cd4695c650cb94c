package deque

// White-box tests for the ABA defenses of the lock-free deque: the
// generation tag in the bottom word must make every stale thief CAS fail
// across empty transitions, conflict claims, claim-all compaction, and —
// the freelist case — Reset and reuse. A "stale thief" here is driven by
// hand: the test performs the read phase of PopBottom (word → top → arr →
// slot), lets the world change, and only then attempts the CAS, which is
// exactly the window a preempted thief goroutine occupies.

import "testing"

// thiefSnap is a thief's read phase, frozen mid-steal.
type thiefSnap struct {
	w     uint64 // the bottom word the thief read
	val   int    // the slot value it read
	valid bool   // the read phase found a non-empty deque
}

// snapRead performs PopBottom's read phase on d without the CAS.
func snapRead(d *Deque[int]) thiefSnap {
	w := d.bottom.Load()
	_, bot := unpack(w)
	t := d.top.Load()
	if t <= int64(bot) {
		return thiefSnap{}
	}
	ap := d.arr.Load()
	if ap == nil || int(bot) >= len(*ap) {
		return thiefSnap{}
	}
	x, ok := (*ap)[bot].Load().(int)
	if !ok {
		return thiefSnap{}
	}
	return thiefSnap{w: w, val: x, valid: true}
}

// snapCommit attempts the frozen thief's CAS, returning whether it won.
func snapCommit(d *Deque[int], s thiefSnap) bool {
	tag, bot := unpack(s.w)
	return d.bottom.CompareAndSwap(s.w, pack(tag, bot+1))
}

// TestStaleThiefCASFailsAcrossReset pins the satellite scenario: a deque
// goes through Reset → freelist → reuse between a thief's read and its
// CAS. Without the generation tag the bottom index returns to the same
// numeric value and the stale CAS would steal a thread from the deque's
// NEXT life; the tag bump in Reset must make it fail.
func TestStaleThiefCASFailsAcrossReset(t *testing.T) {
	d := new(Deque[int])
	d.PushTop(101)
	d.PushTop(102)

	s := snapRead(d)
	if !s.valid || s.val != 101 {
		t.Fatalf("thief read phase got (%d, %v), want (101, true)", s.val, s.valid)
	}

	// The deque drains, is retired to a freelist, and is reused by a
	// different owner with different contents — bottom index identical.
	d.PopTop()
	d.PopTop()
	d.Reset()
	d.PushTop(201)
	d.PushTop(202)

	if snapCommit(d, s) {
		t.Fatal("stale thief CAS succeeded across Reset/reuse: ABA")
	}
	if got, ok := d.PopBottom(); !ok || got != 201 {
		t.Fatalf("new-life bottom = (%d, %v), want (201, true)", got, ok)
	}
}

// TestStaleThiefCASFailsAcrossEmptyTransition: the owner drains its own
// deque and pushes fresh work (no Reset involved); the empty transition's
// tag bump must still fence out the stale thief.
func TestStaleThiefCASFailsAcrossEmptyTransition(t *testing.T) {
	d := new(Deque[int])
	d.PushTop(1)
	s := snapRead(d)
	if !s.valid {
		t.Fatal("thief read phase failed on a one-item deque")
	}
	if x, ok := d.PopTop(); !ok || x != 1 {
		t.Fatalf("owner conflict pop = (%d, %v), want (1, true)", x, ok)
	}
	d.PushTop(2) // bottom index 0 again, same array
	if snapCommit(d, s) {
		t.Fatal("stale thief CAS succeeded across an empty transition: ABA")
	}
	if x, ok := d.PopBottom(); !ok || x != 2 {
		t.Fatalf("PopBottom after failed stale CAS = (%d, %v), want (2, true)", x, ok)
	}
}

// TestOwnerConflictLosesToCommittedThief: with one item, a thief whose
// CAS lands first wins the item and the owner's conflict CAS must report
// empty — the double-claim arbitration.
func TestOwnerConflictLosesToCommittedThief(t *testing.T) {
	d := new(Deque[int])
	d.PushTop(7)
	s := snapRead(d)
	if !snapCommit(d, s) {
		t.Fatal("uncontended thief CAS failed")
	}
	if s.val != 7 {
		t.Fatalf("thief stole %d, want 7", s.val)
	}
	if _, ok := d.PopTop(); ok {
		t.Fatal("owner pop succeeded on the item a thief already claimed")
	}
	if !d.Empty() {
		t.Fatalf("deque not empty after the arbitration, len=%d", d.Len())
	}
}

// TestStaleThiefCASFailsAcrossClaimAll: claim-all (compaction/growth)
// moves the live window to the array base under a tag bump; a thief
// holding the pre-compaction word must fail even though its captured
// bottom index is once again within the live window.
func TestStaleThiefCASFailsAcrossClaimAll(t *testing.T) {
	d := new(Deque[int])
	for i := 1; i <= minCap; i++ {
		d.PushTop(100 + i)
	}
	// Erode the bottom so the window sits high in the array.
	for i := 0; i < 4; i++ {
		d.PopBottom()
	}
	s := snapRead(d)
	if !s.valid || s.val != 105 {
		t.Fatalf("thief read = (%d, %v), want (105, true)", s.val, s.valid)
	}
	// The next push finds top == len(arr) and claim-alls.
	d.PushTop(999)
	if snapCommit(d, s) {
		t.Fatal("stale thief CAS succeeded across claim-all: ABA")
	}
	if x, ok := d.PopBottom(); !ok || x != 105 {
		t.Fatalf("post-compaction bottom = (%d, %v), want (105, true)", x, ok)
	}
}

// TestTagWraparound pins the wraparound arithmetic: the tag is a uint32
// that wraps modulo 2³², and operations keep working across the wrap —
// an ABA would need exactly 2³² tag bumps inside one thief's read-to-CAS
// window. The test parks the tag at MaxUint32, crosses the wrap with an
// ordinary empty transition, and checks both the arithmetic and that a
// pre-wrap stale thief still fails.
func TestTagWraparound(t *testing.T) {
	d := new(Deque[int])
	d.PushTop(1)
	d.PushTop(2)
	// Park the tag at its maximum, preserving geometry (bot stays 0, the
	// array and items are untouched).
	d.bottom.Store(pack(^uint32(0), 0))
	s := snapRead(d)
	if !s.valid || s.val != 1 {
		t.Fatalf("pre-wrap thief read = (%d, %v), want (1, true)", s.val, s.valid)
	}
	if x, ok := d.PopTop(); !ok || x != 2 { // plain take: no tag bump
		t.Fatalf("plain pop at tag MaxUint32 = (%d, %v), want (2, true)", x, ok)
	}
	if x, ok := d.PopTop(); !ok || x != 1 { // conflict claim: tag+1 wraps to 0
		t.Fatalf("conflict pop at tag MaxUint32 = (%d, %v), want (1, true)", x, ok)
	}
	if tag, bot := unpack(d.bottom.Load()); tag != 0 || bot != 0 {
		t.Fatalf("post-wrap word = (tag %d, bot %d), want (0, 0)", tag, bot)
	}
	d.PushTop(3) // bottom index 0 again, same array, post-wrap epoch
	if snapCommit(d, s) {
		t.Fatal("stale pre-wrap thief CAS succeeded across the tag wrap")
	}
	if x, ok := d.PopBottom(); !ok || x != 3 {
		t.Fatalf("PopBottom after wrap = (%d, %v), want (3, true)", x, ok)
	}
	// pack/unpack round-trip at the extremes.
	for _, tag := range []uint32{0, 1, ^uint32(0), ^uint32(0) - 1} {
		for _, bot := range []uint32{0, 1, ^uint32(0)} {
			if gt, gb := unpack(pack(tag, bot)); gt != tag || gb != bot {
				t.Fatalf("pack/unpack(%d, %d) = (%d, %d)", tag, bot, gt, gb)
			}
		}
	}
}

// FuzzDequeStaleThief is the lock-free model oracle: a deterministic
// linearizability check of the deque against a sequential slice model,
// with stale thieves injected at arbitrary points. Fuzz bytes drive owner
// pushes/pops/conditional pops, Reset-and-refill recycling, and up to
// four thieves whose read phase and CAS commit are SEPARATE ops — so the
// fuzzer explores exactly the preemption windows a real thief goroutine
// can occupy, including windows spanning empty transitions, claim-alls,
// and Resets. The oracle: a committed CAS may only succeed if the model's
// bottom at commit time is byte-for-byte the value the thief read at
// capture time (same epoch ⇒ nothing moved), and every owner op must
// agree exactly with the model.
func FuzzDequeStaleThief(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 1, 3, 0})                // read, pops, commit
	f.Add([]byte{0, 0, 0, 2, 4, 0, 0, 3, 1})          // capture, reset+refill, commit
	f.Add([]byte{0, 0, 2, 1, 2, 9, 3, 0, 3, 1})       // two thieves race one bottom
	f.Add([]byte{0, 0, 0, 0, 2, 0, 5, 0, 5, 1, 3, 0}) // popIf around a frozen thief
	f.Add([]byte{4, 200, 2, 0, 4, 3, 0, 0, 3, 0})     // refill storms
	f.Fuzz(func(t *testing.T, data []byte) {
		d := new(Deque[int])
		var model []int
		next := 1
		var snaps [4]thiefSnap

		check := func(step int, op string) {
			if d.Len() != len(model) {
				t.Fatalf("step %d (%s): Len %d != model %d", step, op, d.Len(), len(model))
			}
			items := d.Items()
			for i, x := range items {
				if model[i] != x {
					t.Fatalf("step %d (%s): Items[%d] = %d, model %d", step, op, i, x, model[i])
				}
			}
		}

		for step, b := range data {
			arg := int(b) / 8
			switch b % 8 {
			case 0, 1: // owner push
				d.PushTop(next)
				model = append(model, next)
				next++
			case 2: // thief read phase (freeze a snapshot)
				snaps[arg%4] = snapRead(d)
			case 3: // thief CAS commit
				s := snaps[arg%4]
				if !s.valid {
					continue
				}
				snaps[arg%4] = thiefSnap{}
				won := snapCommit(d, s)
				if won {
					if len(model) == 0 || model[0] != s.val {
						bottom := -1
						if len(model) > 0 {
							bottom = model[0]
						}
						t.Fatalf("step %d: stale CAS won item %d but model bottom is %d: ABA",
							step, s.val, bottom)
					}
					model = model[1:]
				}
			case 4: // recycle: drain semantics of retire — Reset, maybe refill
				d.Reset()
				model = model[:0]
				for i := 0; i < arg%5; i++ {
					d.PushTop(next)
					model = append(model, next)
					next++
				}
			case 5: // owner inline-join pop: conditional on the model top
				want := next + arg // usually a miss; sometimes the real top
				if arg%2 == 0 && len(model) > 0 {
					want = model[len(model)-1]
				}
				got := d.PopTopIf(want)
				expect := len(model) > 0 && model[len(model)-1] == want
				if got != expect {
					t.Fatalf("step %d: PopTopIf(%d) = %v, model says %v", step, want, got, expect)
				}
				if got {
					model = model[:len(model)-1]
				}
			default: // owner pop
				x, ok := d.PopTop()
				if len(model) == 0 {
					if ok {
						t.Fatalf("step %d: PopTop succeeded on empty model", step)
					}
				} else {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if !ok || x != want {
						t.Fatalf("step %d: PopTop = (%d, %v), want (%d, true)", step, x, ok, want)
					}
				}
			}
			check(step, "op")
		}
	})
}
