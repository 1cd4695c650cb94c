package grt

// Tests of the give-up path: a thread whose quota runs out, or whose dummy
// child terminated, republishes itself and makes the steal on its own
// goroutine (T.resteal), handing the worker role back only when the steal
// takes some other thread.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfdeques/internal/rtrace"
)

const (
	chainK        = 128
	chainLink     = 96 // just under K: the second allocation of a link finds the quota spent
	chainBigEvery = 32
	chainBigLeafs = 8
)

// quotaChain is the benchmark's lib-quota-steal job (bench/dfdbench
// lib.go): each link forks a child, allocates just under K in the parent —
// every bigEvery-th parent also bigLeafs·K, a tree of dummies — and again
// in the child at the join, where the quota is spent: the child is
// preempted, its deque given up and stolen back. note, if not nil, sees
// every handle the root forks, and again once its Join has returned.
func quotaChain(r *T, links int, sum *atomic.Int64, note func(h *T, joined bool)) {
	for i := 0; i < links; i++ {
		h := r.Fork(func(c *T) {
			c.Alloc(chainLink)
			sum.Add(1)
			c.Free(chainLink)
		})
		if note != nil {
			note(h, false)
		}
		r.Alloc(chainLink)
		if i%chainBigEvery == chainBigEvery-1 {
			r.Alloc(chainBigLeafs * chainK)
			r.Free(chainBigLeafs * chainK)
		}
		r.Join(h)
		if note != nil {
			note(h, true)
		}
		r.Free(chainLink)
	}
}

// verifyExact replays rec's stream and fails unless Lemma 3.1 was checked
// at every step.
func verifyExact(t *testing.T, rec *rtrace.Recorder) rtrace.Report {
	t.Helper()
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; raise the buffer", rec.Dropped())
	}
	rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.OrderingExact {
		t.Fatalf("ordering checks were disabled: %v", rep.Notes)
	}
	checkGiveUpSections(t, rec.Events())
	return rep
}

// checkGiveUpSections reads the fused give-up off a DFDeques stream. On a
// lane, the record after a quota exhaustion is the idle mark, ahead of the
// steal the give-up makes; and from a lane's deque-release record to the
// end of the steal attempt that follows it — up to four draws that miss R,
// or a victim and, if the pop succeeded, the steal — no other lane changes
// R's membership: release and steal are one spine section.
func checkGiveUpSections(t *testing.T, evs []rtrace.Event) {
	t.Helper()
	lanes := map[int32][]rtrace.Event{}
	for _, e := range evs {
		lanes[e.W] = append(lanes[e.W], e)
	}
	end := map[uint64]uint64{} // release record's Seq → its section's last Seq
	for _, ln := range lanes {
		for i, e := range ln {
			if e.Kind == rtrace.EvQuotaExhaust && (i+1 == len(ln) || ln[i+1].Kind != rtrace.EvIdle) {
				t.Errorf("no idle record after %v", e)
			}
			if e.Kind != rtrace.EvDequeRelease {
				continue
			}
			last, rest := e.Seq, ln[i+1:]
			for k := 0; k < len(rest) && rest[k].Kind == rtrace.EvStealAttempt; k++ {
				last = rest[k].Seq
				if rest[k].A >= 0 { // a victim: the steal, if the pop succeeded, is the lane's next record
					if k+1 < len(rest) && rest[k+1].Kind == rtrace.EvSteal {
						last = rest[k+1].Seq
					}
					break
				}
				if k == 3 {
					break // the last redraw missed too
				}
			}
			if last == e.Seq {
				t.Errorf("no steal attempt after %v", e)
			}
			end[e.Seq] = last
		}
	}
	open := map[int32]uint64{} // lane inside a give-up section → the section's last Seq
	for _, e := range evs {
		switch e.Kind {
		case rtrace.EvSteal, rtrace.EvDequeCreate, rtrace.EvDequeRelease, rtrace.EvDequeRetire:
			for w, last := range open {
				if e.Seq > last {
					delete(open, w)
				} else if w != e.W {
					t.Errorf("%v falls inside w%d's give-up section (ends at #%d)", e, w, last)
				}
			}
		}
		if last, ok := end[e.Seq]; ok {
			open[e.W] = last
		}
	}
}

// giveUpCounts reads off a trace how the give-ups went. A thread gives its
// deque up on a lane when its quota runs out there or when a dummy it
// claimed at the join completes there; it stole itself back if the next
// dispatch on that lane is its own, and handed the worker role back if the
// lane dispatches another thread, or another lane dispatches it, first (a
// lower bound: a worker that got the role back with nothing and then stole
// the thread itself reads as a self-steal). A dummy was claimed at its
// join if it was dispatched inline, and stolen if a worker promoted it.
type giveUpCounts struct {
	selfSteals, handBacks         int64
	claimedDummies, stolenDummies int64
	workerPromotes                int64 // EvPromote with B=0
}

func (c *giveUpCounts) add(d giveUpCounts) {
	c.selfSteals += d.selfSteals
	c.handBacks += d.handBacks
	c.claimedDummies += d.claimedDummies
	c.stolenDummies += d.stolenDummies
	c.workerPromotes += d.workerPromotes
}

func countGiveUps(evs []rtrace.Event) (c giveUpCounts) {
	dummy := map[int64]bool{}
	joiner := map[int64]int64{} // dummy claimed at the join → the thread joining it
	gaveUp := map[int64]int32{} // thread → the lane it gave its deque up on
	for _, e := range evs {
		switch e.Kind {
		case rtrace.EvFork:
			if e.C == 1 {
				dummy[e.B] = true
			}
		case rtrace.EvBlock:
			if e.B == rtrace.BlockJoin && dummy[e.C] {
				joiner[e.C] = e.A
			}
		case rtrace.EvQuotaExhaust:
			gaveUp[e.A] = e.W
		case rtrace.EvComplete:
			if j, claimed := joiner[e.A]; claimed {
				gaveUp[j] = e.W
			}
		case rtrace.EvPromote:
			if e.B == 0 {
				c.workerPromotes++
				if dummy[e.A] {
					c.stolenDummies++
				}
			}
		case rtrace.EvDispatch:
			if e.B == rtrace.SrcInline && dummy[e.A] {
				c.claimedDummies++
			} else if dummy[e.A] {
				delete(joiner, e.A) // a worker runs it: the joiner parked, and gives nothing up
			}
			for tid, w := range gaveUp {
				switch {
				case tid == e.A && w == e.W:
					c.selfSteals++
				case tid == e.A || w == e.W:
					c.handBacks++
				default:
					continue
				}
				delete(gaveUp, tid)
			}
		}
	}
	return c
}

// TestGiveUpWithoutHandoff pins what the inline give-up buys on one worker,
// where nobody races the frame for its deque. With the big allocation after
// the join the given-up deque holds the frame alone, every re-steal takes
// it back, and the job's only goroutine hand-off is the root's first
// dispatch. With it before the join — the benchmark's order — the link's
// unstarted child lies at the bottom of the deque the first dummy gives up:
// the steal takes the child (the role goes back: one hand-off, one
// promotion), which runs on a fresh quota and is not preempted, and then
// the worker steals the joiner back (another hand-off); the tree's other
// seven dummies find the joiner alone again.
func TestGiveUpWithoutHandoff(t *testing.T) {
	const links = 256
	const big = links / chainBigEvery
	const dummies = big * chainBigLeafs
	for _, tc := range []struct {
		name                string
		body                func(r *T, sum *atomic.Int64)
		preempts, handBacks int64
	}{
		{"bench-order", func(r *T, sum *atomic.Int64) { quotaChain(r, links, sum, nil) }, links - big, big},
		{"big-after-join", func(r *T, sum *atomic.Int64) {
			for i := 0; i < big; i++ {
				quotaChain(r, chainBigEvery-1, sum, nil)
				r.Alloc(chainBigLeafs * chainK)
				r.Free(chainBigLeafs * chainK)
			}
		}, big * (chainBigEvery - 1), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := rtrace.NewRecorder(1, 1<<17)
			var sum atomic.Int64
			st, err := Run(Config{Workers: 1, Sched: DFDeques, K: chainK, Seed: 3, Probe: rec},
				func(r *T) { tc.body(r, &sum) })
			if err != nil {
				t.Fatal(err)
			}
			want := Stats{
				TotalThreads: 1 + sum.Load() + big*(2*chainBigLeafs-1), DummyThreads: dummies,
				Preemptions: tc.preempts,
				// The root's first dispatch, one steal per give-up, and one
				// more to get each handed-back joiner again.
				Steals:   1 + tc.preempts + dummies + tc.handBacks,
				Handoffs: 1 + 2*tc.handBacks,
				// One spine section per give-up, release and steal together
				// (they were two). Beyond those: the root's injection, its
				// first steal and its deque's retirement; per hand-back, the
				// finished child's deque retired and the joiner stolen again.
				SchedLockOps: 3 + tc.preempts + dummies + 2*tc.handBacks,
			}
			got := Stats{
				TotalThreads: st.TotalThreads, DummyThreads: st.DummyThreads,
				Preemptions: st.Preemptions, Steals: st.Steals, Handoffs: st.Handoffs,
				SchedLockOps: st.SchedLockOps,
			}
			if got != want {
				t.Errorf("stats = %+v\nwant    %+v", got, want)
			}
			if st.HeapLive != 0 {
				t.Errorf("HeapLive = %d, want 0", st.HeapLive)
			}
			wantTrace := giveUpCounts{
				selfSteals: tc.preempts + dummies - tc.handBacks, handBacks: tc.handBacks,
				claimedDummies: dummies, workerPromotes: 1 + tc.handBacks,
			}
			if c := countGiveUps(rec.Events()); c != wantTrace {
				t.Errorf("trace = %+v\nwant    %+v", c, wantTrace)
			}
			rep := verifyExact(t, rec)
			if rep.QuotaExhausts != tc.preempts || rep.DummyThreads != dummies {
				t.Errorf("replay saw %d quota exhaustions and %d dummies, want %d and %d",
					rep.QuotaExhausts, rep.DummyThreads, tc.preempts, dummies)
			}
		})
	}
}

// TestGiveUpLosesTheRace runs the chain next to a fork tree whose nodes
// allocate past K, then a burst of big allocations on their own, on four
// workers: thieves take preempted frames, joiners and dummies out from
// under the threads that published them. Over the seeds both outcomes of
// each race must have happened — a frame steals itself back and a frame
// hands the worker role back (evReleased); a dummy is claimed at its join
// and a dummy is stolen and run by a worker — and every stream must replay
// with Lemma 3.1 exact. A thief has some tens of nanoseconds to take a
// dummy between its fork and its join, so when twenty seeds did not show
// one the test keeps drawing seeds for a while; with one processor no
// thief runs inside that window, and the stolen dummy is not demanded.
func TestGiveUpLosesTheRace(t *testing.T) {
	const links, depth, bursts, seeds = 64, 7, 32, 20
	var tree func(c *T, d int, sum *atomic.Int64)
	tree = func(c *T, d int, sum *atomic.Int64) {
		if d == 0 {
			sum.Add(1)
			return
		}
		c.Alloc(chainLink) // K is below two of these: every other node gives up
		h := c.Fork(func(l *T) { tree(l, d-1, sum) })
		tree(c, d-1, sum)
		c.Join(h)
		c.Free(chainLink)
	}
	wantStolen := runtime.GOMAXPROCS(0) > 1
	deadline := time.Now().Add(20 * time.Second)
	var total giveUpCounts
	seed := int64(1)
	for ; seed <= seeds || (wantStolen && total.stolenDummies == 0 && time.Now().Before(deadline)); seed++ {
		rec := rtrace.NewRecorder(4, 1<<17)
		var chain, leaves atomic.Int64
		st, err := Run(Config{Workers: 4, Sched: DFDeques, K: chainK, Seed: seed, Probe: rec}, func(r *T) {
			h := r.Fork(func(c *T) { tree(c, depth, &leaves) })
			quotaChain(r, links, &chain, nil)
			r.Join(h)
			for i := 0; i < bursts; i++ {
				r.Alloc(2 * chainBigLeafs * chainK)
				r.Free(2 * chainBigLeafs * chainK)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if chain.Load() != links || leaves.Load() != 1<<depth {
			t.Fatalf("seed %d: %d links and %d leaves ran, want %d and %d", seed, chain.Load(), leaves.Load(), links, 1<<depth)
		}
		if st.HeapLive != 0 {
			t.Fatalf("seed %d: HeapLive = %d, want 0", seed, st.HeapLive)
		}
		verifyExact(t, rec)
		total.add(countGiveUps(rec.Events()))
	}
	t.Logf("over %d seeds: %+v", seed-1, total)
	if total.selfSteals == 0 || total.handBacks == 0 {
		t.Errorf("%d self-steals and %d hand-backs: one arm of the re-steal never ran", total.selfSteals, total.handBacks)
	}
	if total.claimedDummies == 0 || (wantStolen && total.stolenDummies == 0) {
		t.Errorf("%d dummies claimed at the join and %d run by a worker: one dummy path never ran",
			total.claimedDummies, total.stolenDummies)
	}
}

// TestGiveUpCancelInsideWindow cancels chain jobs at random moments, so
// that poison lands while threads sit between publishing themselves and
// their re-steal, on either side of a lost race. Every job must drain, a
// link whose Join did not return when its job was canceled must not have
// been pooled (a pooled frame has its job cleared), a Shutdown that aborts
// running chains must drain them too, no worker may be left holding a
// thread its last give-up stole, and no goroutine may stay behind.
func TestGiveUpCancelInsideWindow(t *testing.T) {
	jobs := 300
	if testing.Short() {
		jobs = 60
	}
	base := runtime.NumGoroutine()
	rt, err := New(Config{Workers: 2, Sched: DFDeques, K: chainK, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var canceled int
	for i := 0; i < jobs; i++ {
		var (
			sum  atomic.Int64
			mu   sync.Mutex
			held = map[*T]bool{}
		)
		note := func(h *T, joined bool) {
			mu.Lock()
			if held[h] = !joined; joined {
				delete(held, h)
			}
			mu.Unlock()
		}
		j, err := rt.Submit(context.Background(), func(r *T) { quotaChain(r, 4*chainBigEvery, &sum, note) })
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(rng.Intn(150)) * time.Microsecond)
		j.Cancel()
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %d did not drain after Cancel", i)
		}
		if _, werr := j.Wait(); werr == nil {
			continue // finished before the cancel landed
		} else if !errors.Is(werr, context.Canceled) {
			t.Fatalf("job %d: Wait = %v, want context.Canceled", i, werr)
		}
		canceled++
		for f := range held {
			if f.job != j {
				t.Fatalf("job %d: a frame the poisoned job still held was released to tPool", i)
			}
		}
	}
	if canceled == 0 {
		t.Error("no cancel landed inside a running job")
	}
	// Shutdown with an expired context aborts what is still running: the
	// same poison, landing in the same windows, on several jobs at once.
	var aborted []*Job
	for i := 0; i < 4; i++ {
		var sum atomic.Int64
		j, err := rt.Submit(context.Background(), func(r *T) { quotaChain(r, 1<<20, &sum, nil) })
		if err != nil {
			t.Fatal(err)
		}
		aborted = append(aborted, j)
	}
	time.Sleep(time.Duration(rng.Intn(150)) * time.Microsecond)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	for i, j := range aborted {
		if _, werr := j.Wait(); !errors.Is(werr, ErrShutdown) {
			t.Fatalf("aborted job %d: Wait = %v, want ErrShutdown", i, werr)
		}
	}
	// A give-up remembers the steal it made until the worker's next Acquire
	// (policy.DFD). Every job drained, so no route out of a give-up —
	// resteal, the worker's acquire, a poisoned thread's unwinding — left a
	// stolen thread behind in a worker's slot.
	for w := 0; w < 2; w++ {
		if x, ok := rt.pol.Acquire(w); ok {
			t.Fatalf("worker %d still held a stolen thread (job %d) after Shutdown", w, x.job.id)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after Shutdown: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMaxLiveThreadsOnTheChain pins the live-thread counter: the chain has
// at most six threads alive by construction — the root, a link, three
// interior nodes of a dummy tree and one dummy. A worker that published a
// dead thread's done flag before dropping the count let a joiner on
// another worker fork the next child with the dead one still counted.
func TestMaxLiveThreadsOnTheChain(t *testing.T) {
	jobs := 300
	if testing.Short() {
		jobs = 60
	}
	rt, err := New(Config{Workers: 2, Sched: DFDeques, K: chainK, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	for i := 0; i < jobs; i++ {
		var sum atomic.Int64
		j, err := rt.Submit(context.Background(), func(r *T) { quotaChain(r, 4*chainBigEvery, &sum, nil) })
		if err != nil {
			t.Fatal(err)
		}
		js, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if js.MaxLiveThreads > 6 {
			t.Fatalf("job %d: MaxLiveThreads = %d, want <= 6", i, js.MaxLiveThreads)
		}
	}
}

// TestGiveUpOneSpineSectionPerSteal is the fused give-up's count at two
// workers, where R is often shorter than p: the chain's give-up finds its
// own deque alone in R, a draw misses it every second time, and a give-up
// whose redraws all miss (one in sixteen) pays for a second section in the
// unfused Steal. Exclusive spine acquisitions per steal were 2.0 with the
// release and the steal in a section each; the gate is 1.2.
func TestGiveUpOneSpineSectionPerSteal(t *testing.T) {
	const links = 64 * chainBigEvery
	var sum atomic.Int64
	st, err := Run(Config{Workers: 2, Sched: DFDeques, K: chainK, Seed: 5},
		func(r *T) { quotaChain(r, links, &sum, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Preemptions < links/2 {
		t.Fatalf("%d preemptions over %d links: the chain is not on the give-up path", st.Preemptions, links)
	}
	ratio := float64(st.SchedLockOps) / float64(st.Steals)
	t.Logf("%d spine sections for %d steals: %.4f per steal", st.SchedLockOps, st.Steals, ratio)
	if ratio > 1.2 {
		t.Errorf("%d exclusive spine acquisitions for %d steals: %.3f per steal, want <= 1.2", st.SchedLockOps, st.Steals, ratio)
	}
}

// slotLog is a probe that keeps the kind of every call worker 0 makes:
// the ring slots a Recorder beside it writes on that lane.
type slotLog struct {
	mu    sync.Mutex
	kinds []rtrace.Kind
}

func (l *slotLog) Event(w int, k rtrace.Kind, a, b, c int64) {
	if w == 0 {
		l.mu.Lock()
		l.kinds = append(l.kinds, k)
		l.mu.Unlock()
	}
}

// TestGiveUpWritesOneBurstPair reads the give-ups off the slots a
// one-worker run writes, where every give-up steals and the stream is a
// function of the program: the pinned chain and tree. A quota give-up is
// exactly two slots, its lead burst (veto, idle, push, release) and the
// steal's burst, and reads the clock once, in the lead. A dummy's give-up
// is three: the dummy's complete, which reads the clock, then its lead and
// the steal's burst, which do not. Every preemption and every dummy leaf
// is one of them.
func TestGiveUpWritesOneBurstPair(t *testing.T) {
	for _, tc := range pinnedRuns {
		t.Run(tc.name, func(t *testing.T) {
			log := new(slotLog)
			st, err := Run(Config{Workers: 1, Sched: DFDeques, K: chainK, Seed: 1, Probe: log}, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			steal := func(k rtrace.Kind) bool {
				return k == rtrace.BurstGiveUpSteal || k == rtrace.BurstGiveUpTakeover
			}
			var quota, dummy int64
			ks := log.kinds
			for i, k := range ks {
				switch k {
				case rtrace.BurstGiveUp, rtrace.BurstPromoteGiveUp:
					quota++
					if i+1 == len(ks) || !steal(ks[i+1]) || !k.ReadsClock() || ks[i+1].ReadsClock() {
						t.Fatalf("slot %d: quota give-up %v then %v, want a clock-reading lead and an unclocked steal", i, k, ks[min(i+1, len(ks)-1)])
					}
				case rtrace.BurstDummyGiveUp:
					dummy++
					if i == 0 || i+1 == len(ks) || ks[i-1] != rtrace.EvComplete || !steal(ks[i+1]) ||
						!ks[i-1].ReadsClock() || k.ReadsClock() || ks[i+1].ReadsClock() {
						t.Fatalf("slot %d: dummy give-up %v, %v, %v, want complete (clocked), then an unclocked lead and steal", i, ks[max(i-1, 0)], k, ks[min(i+1, len(ks)-1)])
					}
				case rtrace.BurstDummyRelease, rtrace.BurstDummyRetire, rtrace.EvDequeRelease:
					t.Fatalf("slot %d: %v on one worker, where every dummy is claimed inline and every give-up republishes", i, k)
				}
			}
			if quota != st.Preemptions || dummy != st.DummyThreads || quota == 0 || (tc.name == "chain" && dummy == 0) {
				t.Errorf("%d quota and %d dummy give-ups, for %d preemptions and %d dummies", quota, dummy, st.Preemptions, st.DummyThreads)
			}
			t.Logf("%d quota give-ups, 2 slots each; %d dummy give-ups, 3 slots each; one clock read a give-up", quota, dummy)
		})
	}
}
