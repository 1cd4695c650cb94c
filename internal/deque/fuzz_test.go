package deque_test

// FuzzDequeConcurrent drives deques in a model of R (a slice, left to
// right, plus an owner map) through random interleavings of the operations
// the DFDeques scheduler performs — owner PushTop/PopTop, thief PopBottom
// with a new deque inserted right of the victim, give-up and deletion —
// while an oracle (a simple total order standing in for the 1DF
// order) checks the Lemma 3.1 priority-ordering invariant after every
// single step: reading R left to right and each deque top to bottom
// yields strictly decreasing priorities.
//
// The fuzzer follows the scheduler's protocol (it is not freeform: a
// freeform op sequence can trivially break Lemma 3.1, which is a
// property of the protocol, not of the data structure alone). What it
// randomizes is the interleaving — which worker acts, which victim a
// thief picks, when deques are given up — which is exactly the freedom
// the concurrent runtime has.
//
// Under the lock-free protocol every operation here is a direct call:
// there is no Mu to take, no Share/Rebias state machine to model. Op 4,
// which used to be the biased protocol's share-mark, is a PROBE — an
// Items snapshot checked against Len, taking nothing — so the old
// biased-protocol corpus seeds remain meaningful regression inputs.
//
// For the adversarial lock-free oracle — stale thieves whose read phase
// and CAS are split across arbitrary owner activity — see
// FuzzDequeStaleThief in aba_test.go (white-box).

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dfdeques/internal/deque"
)

// item is a scheduled "thread" with an identity; its priority is its
// position in the fuzzer's total order.
type item struct{ id int }

// fuzzOracle is the priority oracle: order[0] is the highest priority.
type fuzzOracle struct {
	order  []*item
	nextID int
}

func (o *fuzzOracle) idx(x *item) int {
	for i, y := range o.order {
		if y == x {
			return i
		}
	}
	return -1
}

// insertBefore creates a new item with priority immediately above
// target — the 1DF rule for a forked child.
func (o *fuzzOracle) insertBefore(target *item) *item {
	x := &item{id: o.nextID}
	o.nextID++
	i := o.idx(target)
	o.order = append(o.order, nil)
	copy(o.order[i+1:], o.order[i:])
	o.order[i] = x
	return x
}

func (o *fuzzOracle) remove(x *item) {
	i := o.idx(x)
	copy(o.order[i:], o.order[i+1:])
	o.order[len(o.order)-1] = nil
	o.order = o.order[:len(o.order)-1]
}

func FuzzDequeConcurrent(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 2, 1, 3, 1, 1, 0, 2, 2, 0})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 1, 0, 1, 1, 2, 1, 3, 1})
	f.Add([]byte{3, 2, 5, 0, 0, 0, 0, 3, 0, 2, 1, 2, 2, 0, 1, 1, 2, 3, 3})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0})
	// Former biased-protocol interleavings, kept as regression inputs:
	// op 4 was a share-mark forcing the Mu + Rebias slow path and is now
	// a probe at the same points.
	f.Add([]byte{2, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 2, 1, 1, 0, 1, 1})
	f.Add([]byte{1, 0, 0, 0, 0, 4, 0, 1, 0, 0, 0, 4, 0, 0, 0, 1, 0, 1, 0})
	// Pipeline-scenario shapes (see internal/workload): a producer forks
	// a deep chain of stage cells while every other worker bottom-steals
	// the leftmost deque — thief-heavy, all steals landing on one victim,
	// then the stolen continuations fork on their new rightward deques
	// before the drain.
	f.Add([]byte{3,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // w0 forks 6 deep
		2, 1, 2, 2, 2, 3, // thieves 1–3 strip deque 0's bottom
		0, 1, 0, 2, 0, 3, // stolen cells fork (InsertRight deques)
		1, 1, 1, 2, 1, 3, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	// Backpressure shape: a consumer steals, gives its deque up
	// (suspending on a full buffer), re-steals the abandoned work, and a
	// probe lands between the producer's forks.
	f.Add([]byte{1,
		0, 0, 0, 0, 0, 0, 0, 0, // w0 forks 4 deep
		2, 1, 3, 1, 2, 1, // w1: steal, give up, steal again
		4, 0, 0, 0, // probe, then w0 keeps forking
		1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1})
	// Bottom-steal-dense ladder across stages: steals target interior
	// deques (victim index 1), not just the leftmost, as when a
	// mid-pipeline stage's continuation is the coarsest work left.
	f.Add([]byte{2,
		0, 0, 0, 0, 0, 0, // w0 forks 3 deep
		2, 1, 0, 1, 0, 1, // w1 steals, forks twice on its deque
		2, 5, 0, 2, // w2 steals deque index 1's bottom, forks
		4, 1, // probe an interior deque
		1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2,
		2, 1, 1, 1})
	// Steal storms for the lock-free protocol: every spare worker hammers
	// steals back-to-back against one deep victim, emptying deques are
	// recycled (tag bumps), and probes interleave with the steal burst.
	f.Add([]byte{3,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // w0 forks 8 deep
		2, 1, 2, 2, 2, 3, 2, 1, 2, 2, 2, 3, // six steals, one victim
		4, 0, 2, 1, 4, 1, 2, 2, // probes inside the storm
		1, 1, 1, 2, 1, 3, 1, 1, 1, 2, 1, 3,
		1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{3,
		0, 0, 0, 0, // w0 forks twice
		2, 1, 2, 2, 2, 3, // storm drains it past empty (misses)
		0, 1, 0, 1, // a thief's deque becomes the next victim
		2, 6, 2, 7, // steals land on interior deques
		1, 1, 1, 2, 1, 1, 1, 2, 1, 0, 1, 0, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		p := 1 + int(data[0]%4) // workers
		data = data[1:]
		if len(data) > 512 {
			data = data[:512]
		}

		type dq = *deque.Deque[*item]
		oracle := &fuzzOracle{}
		var r []dq               // R, left to right
		owner := map[dq]int{}    // owned deques of R; absent means unowned
		curr := make([]*item, p) // running thread per worker
		own := make([]dq, p)     // owned deque per worker
		remove := func(d dq) {
			i := slices.Index(r, d)
			r = slices.Delete(r, i, i+1)
			delete(owner, d)
		}

		// Seed: worker 0 runs the root thread from a fresh leftmost deque.
		root := &item{id: -1}
		oracle.order = []*item{root}
		own[0] = new(deque.Deque[*item])
		r = append(r, own[0])
		owner[own[0]] = 0
		curr[0] = root

		check := func(step int, op string) {
			// Ownership: exactly the workers' deques are owned, by them.
			for w, d := range own {
				if d != nil && (owner[d] != w || !slices.Contains(r, d)) {
					t.Fatalf("step %d (%s): worker %d's deque is not in R as its own", step, op, w)
				}
			}
			// Lemma 3.1: left-to-right, top-to-bottom is strictly
			// decreasing priority (strictly increasing oracle index).
			last := -1
			for i, d := range r {
				items := d.Items() // bottom → top
				for j := len(items) - 1; j >= 0; j-- {
					idx := oracle.idx(items[j])
					if idx < 0 {
						t.Fatalf("step %d (%s): deque holds removed item %d",
							step, op, items[j].id)
					}
					if idx <= last {
						t.Fatalf("step %d (%s): priority order violated at deque %d: index %d after %d",
							step, op, i, idx, last)
					}
					last = idx
				}
			}
			// A running thread outranks everything in its own deque.
			for w := 0; w < p; w++ {
				if curr[w] == nil {
					continue
				}
				if top, ok := own[w].PeekTop(); ok {
					if oracle.idx(curr[w]) >= oracle.idx(top) {
						t.Fatalf("step %d (%s): worker %d's thread %d does not outrank its deque top %d",
							step, op, w, curr[w].id, top.id)
					}
				}
			}
		}
		check(0, "seed")

		for step := 0; step+1 < len(data); step += 2 {
			w := int(data[step+1]) % p
			switch data[step] % 5 {
			case 0: // fork: push continuation, run the child
				if curr[w] == nil {
					continue
				}
				child := oracle.insertBefore(curr[w])
				own[w].PushTop(curr[w])
				curr[w] = child
				check(step, "fork")

			case 1: // terminate: pop own top; empty deque leaves R
				if curr[w] == nil {
					continue
				}
				oracle.remove(curr[w])
				if x, ok := own[w].PopTop(); ok {
					curr[w] = x
				} else {
					remove(own[w])
					own[w], curr[w] = nil, nil
				}
				check(step, "terminate")

			case 2: // steal: PopBottom a leftmost-p victim, insert right of it
				if curr[w] != nil || len(r) == 0 {
					continue
				}
				c := (int(data[step+1]) / p) % min(p, len(r))
				victim := r[c]
				_, owned := owner[victim]
				x, ok := victim.PopBottom()
				if !ok {
					// Empty victim: delete it if abandoned, else retry later.
					if !owned {
						remove(victim)
					}
					check(step, "steal-miss")
					continue
				}
				nd := new(deque.Deque[*item])
				r = slices.Insert(r, c+1, nd)
				owner[nd] = w
				own[w], curr[w] = nd, x
				if victim.Empty() && !owned {
					remove(victim)
				}
				check(step, "steal")

			case 3: // give up (§3.3 dummy path): thread ends, deque released
				if curr[w] == nil {
					continue
				}
				oracle.remove(curr[w])
				if own[w].Empty() {
					remove(own[w])
				} else {
					delete(owner, own[w])
				}
				own[w], curr[w] = nil, nil
				check(step, "giveup")

			case 4: // probe: a snapshot of some deque, taking nothing
				if len(r) == 0 {
					continue
				}
				d := r[int(data[step+1])%len(r)]
				if items := d.Items(); len(items) != d.Len() {
					t.Fatalf("step %d: Items has %d entries, Len says %d", step, len(items), d.Len())
				}
				check(step, "probe")
			}
		}
	})
}

// TestDequeConcurrentHammer shares one lock-free deque between an owner
// and three thieves with NO mutual exclusion at all — every operation is
// a direct call — and checks conservation: every pushed item is popped by
// exactly one side or left in the deque. Run under -race this certifies
// the protocol's happens-before edges (owner→thief through the top/array
// publication, thief→owner through the bottom-word CAS) cover all of the
// deque's mutable state.
func TestDequeConcurrentHammer(t *testing.T) {
	const pushes = 20000
	d := new(deque.Deque[int])
	var popped, stolen atomic.Int64
	done := make(chan struct{})
	stop := make(chan struct{})

	go func() { // owner: mostly pushes, sometimes pops its own top
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for n := 0; n < pushes; {
			if rng.Intn(64) == 0 {
				runtime.Gosched() // let thieves in even on GOMAXPROCS=1
			}
			if rng.Intn(3) > 0 {
				d.PushTop(n)
				// Owner-side PeekTop racing the thieves: they only take
				// bottoms, so a credited top is the item just pushed.
				if x, ok := d.PeekTop(); ok && x != n {
					t.Errorf("PeekTop = %d right after PushTop(%d)", x, n)
					return
				}
				n++
			} else if _, ok := d.PopTop(); ok {
				popped.Add(1)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // thieves: pop bottoms until told to stop
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d.Len() == 0 {
					runtime.Gosched() // avoid starving the owner on GOMAXPROCS=1
					continue
				}
				if _, ok := d.PopBottom(); ok {
					stolen.Add(1)
				}
			}
		}()
	}
	<-done
	close(stop)
	wg.Wait()

	if got := popped.Load() + stolen.Load() + int64(d.Len()); got != pushes {
		t.Errorf("items not conserved: popped %d + stolen %d + left %d = %d, want %d",
			popped.Load(), stolen.Load(), d.Len(), got, pushes)
	}
	t.Logf("owner popped %d, thieves stole %d, %d left", popped.Load(), stolen.Load(), d.Len())
}

// TestDequeStealStormHammer (successor to the biased-protocol hammer) is
// the owner-progress test: the deque is pinned shallow — the owner keeps
// it between 0 and a few items — so nearly every owner pop runs the
// one-element conflict CAS against three thieves hammering the same
// bottom word, plus claim-all compactions when the eroded window hits the
// array end. The owner must complete a fixed budget of operations while
// the storm rages (nonblocking progress: no thief can wedge it, because
// there is no lock to hold), and conservation plus the uniqueness check
// certify that no item is ever double-claimed across the owner/thief
// arbitration. Duplicated delivery is exactly what an ABA or a broken
// conflict CAS would produce.
func TestDequeStealStormHammer(t *testing.T) {
	const pushes = 20000
	d := new(deque.Deque[int])
	taken := make([]atomic.Int32, pushes) // claim count per item identity
	var popped, stolen atomic.Int64
	done := make(chan struct{})
	stop := make(chan struct{})

	go func() { // owner: push one, pop one — maximal conflict-CAS density
		defer close(done)
		rng := rand.New(rand.NewSource(2))
		for n := 0; n < pushes; {
			if rng.Intn(64) == 0 {
				runtime.Gosched()
			}
			d.PushTop(n)
			n++
			if x, ok := d.PopTop(); ok {
				popped.Add(1)
				taken[x].Add(1)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // thieves
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d.Len() == 0 {
					runtime.Gosched()
					continue
				}
				if x, ok := d.PopBottom(); ok {
					stolen.Add(1)
					taken[x].Add(1)
				}
			}
		}()
	}
	<-done
	close(stop)
	wg.Wait()

	for _, x := range d.Items() { // drain leftovers into the claim table
		taken[x].Add(1)
	}
	if got := popped.Load() + stolen.Load() + int64(d.Len()); got != pushes {
		t.Errorf("items not conserved: popped %d + stolen %d + left %d = %d, want %d",
			popped.Load(), stolen.Load(), d.Len(), got, pushes)
	}
	for id := range taken {
		if c := taken[id].Load(); c != 1 {
			t.Fatalf("item %d claimed %d times, want exactly 1", id, c)
		}
	}
	t.Logf("owner popped %d, thieves stole %d, %d left", popped.Load(), stolen.Load(), d.Len())
}
