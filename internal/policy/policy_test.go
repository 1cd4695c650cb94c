package policy_test

import (
	"math/rand"
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/policy"
)

func TestQuotaChargeCredit(t *testing.T) {
	q := policy.NewQuota(2)
	const k = 100

	// All quotas start exhausted until the first Reset.
	if q.Charge(0, 1, k) {
		t.Error("unreset quota accepted a charge")
	}
	q.Reset(0, k)
	if !q.Charge(0, 60, k) || !q.Charge(0, 40, k) {
		t.Error("charges within quota vetoed")
	}
	if q.Charge(0, 1, k) {
		t.Error("exhausted quota accepted a charge")
	}
	// Frees restore quota (net allocation) but clamp at k.
	q.Credit(0, 30, k)
	if got := q.Remaining(0); got != 30 {
		t.Errorf("remaining = %d, want 30", got)
	}
	q.Credit(0, 1000, k)
	if got := q.Remaining(0); got != k {
		t.Errorf("credit did not clamp: remaining = %d, want %d", got, k)
	}
	// Worker 1 is independent of worker 0.
	if q.Charge(1, 1, k) {
		t.Error("worker 1 shares worker 0's quota")
	}
	// k = 0 disables the quota entirely.
	if !q.Charge(0, 1<<40, 0) {
		t.Error("k=0 vetoed a charge")
	}
}

func TestDummyArithmetic(t *testing.T) {
	for _, tc := range []struct{ n, k, want int64 }{
		{1000, 100, 10}, {1001, 100, 11}, {100, 100, 1}, {1, 100, 1}, {999, 1000, 1},
	} {
		if got := policy.DummyLeaves(tc.n, tc.k); got != tc.want {
			t.Errorf("DummyLeaves(%d, %d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
	// Splitting preserves the leaf count, both halves stay positive, and
	// repeated splitting terminates at single leaves.
	for n := int64(2); n < 200; n++ {
		l, r := policy.SplitDummies(n)
		if l+r != n || l < 1 || r < 1 {
			t.Fatalf("SplitDummies(%d) = (%d, %d)", n, l, r)
		}
	}
}

func TestPrioQueueOrders(t *testing.T) {
	q := policy.NewQueue(func(a, b int) bool { return a < b })
	for _, v := range []int{5, 1, 4, 1, 3, 9, 2} {
		q.Insert(v)
	}
	prev := -1
	for q.Len() > 0 {
		v, ok := q.Take()
		if !ok {
			t.Fatal("Take failed on non-empty queue")
		}
		if v < prev {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = v
	}
	if _, ok := q.Take(); ok {
		t.Error("Take succeeded on empty queue")
	}
}

func TestFIFOQueueOrderAndCompaction(t *testing.T) {
	// FIFO's order: nothing ranks above anything, so every insert appends.
	q := policy.NewQueue(func(a, b int) bool { return false })
	// Enough traffic to trigger the consumed-prefix compaction (> 1024).
	next := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 100; i++ {
			q.Insert(round*100 + i)
		}
		for i := 0; i < 100; i++ {
			v, ok := q.Take()
			if !ok || v != next {
				t.Fatalf("pop = (%d, %v), want %d", v, ok, next)
			}
			next++
		}
	}
	if q.Len() != 0 {
		t.Errorf("len = %d after draining", q.Len())
	}
}

// dfdThread is one thread of the deterministic DFD walks (driveDFD
// below and TestDFDExhaustive): its 1DF priority, its fork/join
// bookkeeping, and how it is currently running.
type dfdThread struct {
	rec      *policy.PrioNode
	unjoined []*dfdThread // forked, not yet joined (LIFO)
	waiter   *dfdThread   // parent parked on this thread's termination
	inlineOf *dfdThread   // parent whose frame runs this thread after a JoinPop claim
	started  bool         // dispatched by a worker at least once: no longer claimable inline
	done     bool
}

// TestDFDPolicyInvariants drives the DFD policy from a single goroutine
// through the event sequence the runtime's workers issue — ForkCont with
// the child the 1DF successor of its parent, JoinPop inline claims, parked
// joins handed off at Terminate, Preempt give-ups, Acquire steals — as a
// seeded random walk over 2–4 workers, and checks Lemma 3.1 in the paper's
// polarity (the priorities are dag.Before over the test's own fork tree)
// after every
// step. No runtime, no goroutines, no locks: a fork-priority or
// deque-geometry mistake fails here deterministically.
func TestDFDPolicyInvariants(t *testing.T) {
	for workers := 2; workers <= 4; workers++ {
		for seed := int64(1); seed <= 8; seed++ {
			driveDFD(t, workers, seed)
		}
	}
}

func driveDFD(t *testing.T, workers int, seed int64) {
	const steps, maxLive = 4000, 64
	rng := rand.New(rand.NewSource(seed))
	l := policy.Prios{Order: dag.ParentFirst}
	less := func(a, b *dfdThread) bool { return l.Less(a.rec, b.rec) }
	d := policy.NewDFD(workers, 0, less, seed)
	root := &dfdThread{rec: l.Root()}
	d.Seed(root)

	curr := make([]*dfdThread, workers)
	running := func(w int) (*dfdThread, bool) { return curr[w], curr[w] != nil }
	// dispatch(w) hands worker w the thread a policy call returned, if any.
	dispatch := func(w int) func(*dfdThread, bool) {
		return func(x *dfdThread, ok bool) {
			curr[w] = nil
			if ok {
				x.started = true
				curr[w] = x
			}
		}
	}
	live, steals, claims := 1, 0, 0

	// terminate retires curr[w] (which has joined all its children) and
	// picks the worker's next thread the way the runtime does.
	terminate := func(w int) {
		x := curr[w]
		x.done = true
		live--
		if p := x.inlineOf; p != nil {
			curr[w] = p // the claiming parent resumes in its own frame
			return
		}
		dispatch(w)(d.Terminate(w, x.waiter, x.waiter != nil))
	}
	// join joins curr[w]'s most recent child: reap it if done, claim it
	// inline if it is still on top of w's deque, otherwise park.
	join := func(w int) {
		x := curr[w]
		h := x.unjoined[len(x.unjoined)-1]
		x.unjoined = x.unjoined[:len(x.unjoined)-1]
		switch {
		case h.done:
		case !h.started && d.JoinPop(w, x, h):
			h.inlineOf = x
			curr[w] = h
			claims++
		default:
			h.waiter = x
			dispatch(w)(d.Next(w))
		}
	}

	for i := 0; live > 0; i++ {
		w := rng.Intn(workers)
		x := curr[w]
		draining := i >= steps
		switch op := rng.Intn(8); {
		case x == nil:
			if dispatch(w)(d.Acquire(w)); curr[w] != nil {
				steals++
			}
		case !draining && live < maxLive && (op < 4 || x == root && len(x.unjoined) == 0):
			// (The root forks rather than ending the walk early.)
			child := &dfdThread{rec: l.Fork(x.rec)}
			x.unjoined = append(x.unjoined, child)
			d.ForkCont(w, x, child)
			live++
		case op == 4 && !draining:
			// Quota exhaustion: back on top of the deque, deque given up.
			// Parking promotes a frame that was running inline.
			x.started = true
			d.Preempt(w, x, 0, false)
			curr[w] = nil
		case len(x.unjoined) > 0:
			join(w)
		default:
			terminate(w)
		}
		if err := d.CheckInvariants(running); err != nil {
			t.Fatalf("p=%d seed=%d step %d: %v", workers, seed, i, err)
		}
		if i > 100*steps {
			t.Fatalf("p=%d seed=%d: drain did not converge", workers, seed)
		}
	}
	if d.HasWork() {
		t.Errorf("p=%d seed=%d: pool reports work after drain", workers, seed)
	}
	if steals < 2 || claims == 0 {
		t.Errorf("p=%d seed=%d: walk too tame to mean anything: %d steals, %d inline claims", workers, seed, steals, claims)
	}
	if st := d.Stats(); st.Steals != int64(steals) || st.MaxDeques < 1 {
		t.Errorf("p=%d seed=%d: policy stats %+v after %d driver steals", workers, seed, st, steals)
	}
}

// TestDFDGiveUpRemembersItsSteal pins the contract between DFD's give-ups
// and Acquire: the give-up makes the steal attempt inside its own spine
// section, and the next Acquire on that worker reports it — exactly once,
// a success or a failure, without touching the pool again — on the
// quota-exhaustion route and on the dummy-termination route.
func TestDFDGiveUpRemembersItsSteal(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	acquire := func(d *policy.DFD[int], w int) int {
		for i := 0; i < 1000; i++ {
			if x, ok := d.Acquire(w); ok {
				return x
			}
		}
		t.Fatal("Acquire never succeeded")
		return 0
	}

	t.Run("preempt", func(t *testing.T) {
		const k = 100
		d := policy.NewDFD(1, k, less, 1)
		d.Seed(7)
		acquire(d, 0)
		if !d.Charge(0, k) || d.Charge(0, 1) {
			t.Fatal("quota did not run out as scripted")
		}
		before := d.Stats()
		d.Preempt(0, 7, 0, false)
		mid := d.Stats()
		if mid.LockOps-before.LockOps != 1 || mid.Steals-before.Steals != 1 {
			t.Fatalf("Preempt took the spine %d times and stole %d, want 1 and 1",
				mid.LockOps-before.LockOps, mid.Steals-before.Steals)
		}
		if d.HasWork() {
			t.Fatal("the preempted thread is still published after the give-up stole it back")
		}
		if x, ok := d.Acquire(0); !ok || x != 7 {
			t.Fatalf("Acquire = %d,%v, want the give-up's steal: 7", x, ok)
		}
		if after := d.Stats(); after != mid {
			t.Fatalf("handing the attempt over touched the pool: %+v, then %+v", mid, after)
		}
		if !d.Charge(0, k) {
			t.Fatal("the handed-over steal did not refill the quota")
		}
	})

	t.Run("failure is reported once", func(t *testing.T) {
		// One deque among p = 4 positions: some give-up misses all its draws.
		d := policy.NewDFD(4, 0, less, 2)
		d.Seed(7)
		acquire(d, 0)
		for i := 0; ; i++ {
			if i == 1000 {
				t.Fatal("no give-up ever missed")
			}
			d.Preempt(0, 7, 0, false)
			mid := d.Stats()
			if _, ok := d.Acquire(0); ok {
				continue
			}
			if after := d.Stats(); after != mid {
				t.Fatalf("reporting the failed attempt touched the pool: %+v, then %+v", mid, after)
			}
			d.Acquire(0) // nothing remembered any more: a real attempt
			if after := d.Stats(); after.Steals+after.FailedSteals != mid.Steals+mid.FailedSteals+1 {
				t.Fatalf("the Acquire after the report made no attempt of its own: %+v, then %+v", mid, after)
			}
			break
		}
	})

	t.Run("dummy", func(t *testing.T) {
		// Worker 0 runs 5, which forked 9 and then the dummy 6; worker 1
		// stole 9 and forked 10 from it. Worker 0 claims the dummy at its
		// join and runs it; at its end Terminate — the same call from the
		// joiner (joinInline) and from a stolen dummy's own exit — pushes
		// the joiner 5, gives the deque up and steals 5
		// back or 10 from worker 1, and Acquire must hand that over.
		d := policy.NewDFD(2, 0, less, 3)
		d.Seed(5)
		acquire(d, 0)
		d.ForkCont(0, 5, 9)
		d.ForkCont(0, 5, 6)
		if x := acquire(d, 1); x != 9 {
			t.Fatalf("worker 1 stole %d, want the bottom 9", x)
		}
		d.ForkCont(1, 9, 10)
		if !d.JoinPop(0, 5, 6) {
			t.Fatal("worker 0 could not claim the dummy at its join")
		}
		d.Dummy(0)
		before := d.Stats()
		if _, ok := d.Terminate(0, 5, true); ok {
			t.Fatal("Terminate after a dummy handed a thread over: the give-up must send the worker to Acquire")
		}
		mid := d.Stats()
		if mid.LockOps-before.LockOps != 1 || mid.Steals-before.Steals != 1 {
			t.Fatalf("the dummy's give-up took the spine %d times and stole %d, want 1 and 1",
				mid.LockOps-before.LockOps, mid.Steals-before.Steals)
		}
		x, ok := d.Acquire(0)
		if !ok || (x != 5 && x != 10) {
			t.Fatalf("Acquire = %d,%v, want the give-up's steal: 5 or 10", x, ok)
		}
		if after := d.Stats(); after != mid {
			t.Fatalf("handing the attempt over touched the pool: %+v, then %+v", mid, after)
		}
	})
}

// TestSerialDFDGiveUpLeavesTheStealToTheRound pins the one rule in which
// the simulator's DFDeques differs from the runtime's: a NewDFD give-up
// makes exactly one steal attempt in its own spine section, and a
// NewSerialDFD give-up makes none — §4.1 puts that steal in the next
// round, which BeginRound and StealFrom run, refilling the quota.
func TestSerialDFDGiveUpLeavesTheStealToTheRound(t *testing.T) {
	const k = 100
	less := func(a, b int) bool { return a < b }
	for _, c := range []struct {
		name     string
		d        *policy.DFD[int]
		attempts int64
	}{
		{"runtime", policy.NewDFD(1, k, less, 1), 1},
		{"serial", policy.NewSerialDFD(1, k, less), 0},
	} {
		d := c.d
		d.Seed(7)
		if x, ok := d.Acquire(0); !ok || x != 7 {
			t.Fatalf("%s: Acquire = %d,%v, want the root 7", c.name, x, ok)
		}
		for _, dummy := range []bool{false, true} {
			before := d.Stats()
			if dummy {
				d.ForkCont(0, 7, 8)
				d.Dummy(0)
				if _, ok := d.Terminate(0, 0, false); ok {
					t.Fatalf("%s: Terminate after a dummy handed a thread over", c.name)
				}
			} else {
				d.Charge(0, k)
				d.Preempt(0, 7, 0, false)
			}
			after := d.Stats()
			if got := after.Steals + after.FailedSteals - before.Steals - before.FailedSteals; got != c.attempts {
				t.Fatalf("%s (dummy %v): the give-up made %d steal attempts, want %d", c.name, dummy, got, c.attempts)
			}
			if c.attempts == 1 {
				d.Acquire(0) // hand the remembered attempt over
				continue
			}
			d.BeginRound(k)
			if _, ok := d.StealFrom(0, 0, false); !ok {
				t.Fatalf("%s (dummy %v): the next round's steal failed", c.name, dummy)
			}
			if !d.Charge(0, k) {
				t.Fatalf("%s (dummy %v): StealFrom did not refill the quota", c.name, dummy)
			}
		}
	}
}
