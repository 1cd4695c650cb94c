package grt

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// orderScript drives the runtime's own fork bookkeeping (newT, noteFork,
// releaseT, the root fields Submit writes) through a random nested-parallel
// history on one goroutine, next to an oracle that is not a tree walk: the
// live threads kept in 1DF order in a plain slice, each fork inserted right
// after its forker, each root appended, each death removed.
type orderScript struct {
	rt      Runtime
	live    []*T // in birth order
	order   []*T // the oracle: live, first in 1DF order first
	jobs    int64
	pooled  map[*T]bool // frames handed to releaseT so far
	reused  int
	maxDeep int
}

func (s *orderScript) born(t *T, at int) {
	if s.pooled[t] {
		s.reused++
		delete(s.pooled, t)
	}
	s.live = append(s.live, t)
	s.order = slices.Insert(s.order, at, t)
	s.maxDeep = max(s.maxDeep, t.depth)
}

func (s *orderScript) newRoot() {
	s.jobs++
	t := s.rt.newT(nil)
	t.job = &Job{id: s.jobs}
	t.root = true
	t.index = t.job.id
	s.born(t, len(s.order))
}

func (s *orderScript) fork(t *T) {
	c := s.rt.newT(nil)
	c.job = t.job
	t.unjoined = append(t.unjoined, c)
	s.rt.noteFork(t, c)
	s.born(c, slices.Index(s.order, t)+1)
}

// die terminates a thread with no unjoined children: a root's frame is
// released on the spot (its exit), any other waits for its parent's join.
func (s *orderScript) die(t *T) {
	i := slices.Index(s.live, t)
	s.live = slices.Delete(s.live, i, i+1)
	i = slices.Index(s.order, t)
	s.order = slices.Delete(s.order, i, i+1)
	t.done.Store(true)
	if t.root {
		s.release(t)
	}
}

// join is t's Join of its most recent child, which has already died.
func (s *orderScript) join(t *T) {
	c := t.unjoined[len(t.unjoined)-1]
	t.unjoined = t.unjoined[:len(t.unjoined)-1]
	s.release(c)
}

func (s *orderScript) release(t *T) {
	s.pooled[t] = true
	releaseT(t)
}

func (s *orderScript) check(t *testing.T, seed int64, step int, op string) {
	for i, a := range s.order {
		for j, b := range s.order {
			if got := prioLess(a, b); got != (i < j) {
				t.Fatalf("seed %d step %d (%s): prioLess(order[%d], order[%d]) = %v, want %v (depths %d, %d)", seed, step, op, i, j, got, i < j, a.depth, b.depth)
			}
		}
	}
}

// run plays one script: a chain of spine nested forks, then steps random
// operations with at most maxLive live threads; chain is the probability
// that a fork extends the newest thread rather than a random one.
func (s *orderScript) run(t *testing.T, seed int64, spine, steps, maxLive int, chain float64) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(ok func(*T) bool) *T {
		var c []*T
		for _, x := range s.live {
			if ok(x) {
				c = append(c, x)
			}
		}
		if len(c) == 0 {
			return nil
		}
		return c[rng.Intn(len(c))]
	}
	leaf := func(x *T) bool { return len(x.unjoined) == 0 }
	lastChild := func(x *T) *T {
		if len(x.unjoined) == 0 {
			return nil
		}
		return x.unjoined[len(x.unjoined)-1]
	}
	s.newRoot()
	for i := 0; i < spine; i++ {
		s.fork(s.live[len(s.live)-1])
		s.check(t, seed, i, "spine")
	}
	for step := 0; step < steps; step++ {
		op := "fork"
		switch r := rng.Float64(); {
		case len(s.live) == 0 || r < 0.04:
			op = "root"
			s.newRoot()
		case r < 0.50 && len(s.live) < maxLive:
			x := s.live[len(s.live)-1]
			if rng.Float64() >= chain {
				x = s.live[rng.Intn(len(s.live))]
			}
			s.fork(x)
		case r < 0.70:
			op = "terminate"
			if x := pick(leaf); x != nil {
				s.die(x)
			}
		case r < 0.85:
			op = "join"
			if x := pick(func(x *T) bool { c := lastChild(x); return c != nil && c.done.Load() }); x != nil {
				s.join(x)
			}
		default:
			// The inline claim: the child runs to completion inside its
			// parent's Join and is released there.
			op = "inline-join"
			if x := pick(func(x *T) bool { c := lastChild(x); return c != nil && !c.done.Load() && leaf(c) }); x != nil {
				s.die(lastChild(x))
				s.join(x)
			}
		}
		s.check(t, seed, step, op)
	}
}

// TestPrioLessMatchesOMList: the order read off the fork tree is the order
// an insertion list keeps — on every pair of live threads after every step
// of 1000 random scripts (several roots, unbalanced trees, recycled frames)
// and of a handful that nest past depth 64. The list was an
// order-maintenance list (internal/om) when the test was written; it is now
// the slice orderScript keeps, which shares no code with dag.Before.
func TestPrioLessMatchesOMList(t *testing.T) {
	reused := 0
	play := func(seed int64, spine, steps, maxLive int, chain float64) *orderScript {
		s := &orderScript{pooled: map[*T]bool{}}
		s.run(t, seed, spine, steps, maxLive, chain)
		reused += s.reused
		return s
	}
	for seed := int64(0); seed < 1000; seed++ {
		play(seed, 0, 100, 14, 0.3)
	}
	for seed := int64(1000); seed < 1003; seed++ {
		if s := play(seed, 64, 100, 72, 0.5); s.maxDeep < 64 {
			t.Errorf("seed %d: deepest thread at depth %d, want >= 64", seed, s.maxDeep)
		}
	}
	if reused == 0 {
		t.Error("no script ever forked onto a recycled frame")
	}
}

// TestPrioLessNamesABrokenTree: a walk that meets a missing or foreign
// ancestor — a frame pooled while a descendant was live — panics with a
// message, not a nil dereference.
func TestPrioLessNamesABrokenTree(t *testing.T) {
	j, other := &Job{id: 1}, &Job{id: 2}
	root := &T{job: j, index: 1}
	for name, broken := range map[string]*T{
		"parent nil at depth 1": {job: j, depth: 1},
		"parent of another job": {job: j, depth: 1, parent: &T{job: other}},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "grt: prioLess") {
					t.Errorf("%s: recovered %q, want the named prioLess panic", name, msg)
				}
			}()
			prioLess(broken, root)
		}()
	}
}

// TestCancelNeverPoolsPoisonedFrames: a job's threads park on a Mutex and
// a Future three levels down, the job is canceled, and its chains unwind
// one by one — the root typically first — while the swept threads still
// sit in R. A second job meanwhile keeps waking future readers, and each
// Wake ranks the woken thread against those swept tops through ancestors
// that are already dead. No frame of the poisoned job may have gone back
// to tPool (a pooled frame has its job cleared), and the waking job must
// never trip prioLess's broken-tree panic.
func TestCancelNeverPoolsPoisonedFrames(t *testing.T) {
	rounds, fanout := 12, 24
	if testing.Short() {
		rounds = 3
	}
	rt, err := New(Config{Workers: 4, Sched: DFDeques, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wakeRounds atomic.Int64
	waker, err := rt.Submit(context.Background(), func(r *T) {
		for !stop.Load() {
			// The getter is claimed inline and parks the chain; the worker
			// then pops the setter, whose Set is a §5 Wake.
			var f Future
			set := r.Fork(func(c *T) { f.Set(c, 1) })
			get := r.Fork(func(c *T) { f.Get(c) })
			r.Join(get)
			r.Join(set)
			wakeRounds.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < rounds; round++ {
		var (
			framesMu sync.Mutex
			frames   []*T
			mu       Mutex
			fut      Future // never set
		)
		note := func(h *T) *T {
			framesMu.Lock()
			frames = append(frames, h)
			framesMu.Unlock()
			return h
		}
		j, err := rt.Submit(context.Background(), func(r *T) {
			note(r)
			mu.Lock(r) // never unlocked: the root dies holding it
			hs := make([]*T, fanout)
			for i := range hs {
				hs[i] = note(r.Fork(func(c *T) {
					c.Join(note(c.Fork(func(g *T) {
						if i%2 == 0 {
							mu.Lock(g)
							mu.Unlock(g)
						} else {
							fut.Get(g)
						}
					})))
				}))
			}
			for i := fanout - 1; i >= 0; i-- {
				r.Join(hs[i])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Cancel once enough grandchildren are parked: all of them on even
		// rounds, a few on odd ones (the rest are then still unstarted in
		// deques when their ancestors die).
		want := fanout
		if round%2 == 1 {
			want = 1 + round%5
		}
		waitFor(t, "threads to park", func() bool {
			j.mu.Lock()
			defer j.mu.Unlock()
			return len(j.blocked) >= want
		}, j, waker)
		j.Cancel()
		waitFor(t, "the canceled job to drain", func() bool {
			select {
			case <-j.Done():
				return true
			default:
				return false
			}
		}, j, waker)
		if _, werr := j.Wait(); !errors.Is(werr, context.Canceled) {
			t.Fatalf("round %d: Wait = %v, want context.Canceled", round, werr)
		}
		for i, f := range frames {
			if f.job != j {
				t.Fatalf("round %d: frame %d of %d of the poisoned job was released to tPool", round, i, len(frames))
			}
		}
	}

	stop.Store(true)
	if _, werr := waker.Wait(); werr != nil {
		t.Fatalf("waking job: %v", werr)
	}
	if wakeRounds.Load() == 0 {
		t.Fatal("the waking job never completed a round")
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// waitFor polls cond; on timeout it reports the jobs' errors, which is
// where a panic inside a Wake (prioLess's, under the R spine) surfaces.
func waitFor(t *testing.T, what string, cond func() bool, jobs ...*Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			for _, j := range jobs {
				t.Logf("job %d: err = %v", j.id, j.Err())
			}
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
