package grt_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dfdeques/internal/grt"
	"dfdeques/internal/rtrace"
)

// spinForever is a job that never finishes on its own: an endless stream
// of fork-join scheduling events, so a poisoned run dies promptly.
func spinForever(t *grt.T) {
	for {
		t.ForkJoin(func(*grt.T) {})
	}
}

// forkTree forks a balanced binary tree of depth d; the whole job is
// exactly 2^d threads, which the per-job stats tests rely on.
func forkTree(t *grt.T, d int, leaves *atomic.Int64) {
	if d == 0 {
		leaves.Add(1)
		return
	}
	h := t.Fork(func(c *grt.T) { forkTree(c, d-1, leaves) })
	forkTree(t, d-1, leaves)
	t.Join(h)
}

// waitNoLeaks polls until the goroutine count returns to the pre-runtime
// baseline: a Shutdown that strands a worker, watcher, or thread
// goroutine fails here with the offending stacks.
func waitNoLeaks(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak after Shutdown: %d goroutines, baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

func TestCancelMidFlightJobUnblocksWait(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			rt, err := grt.New(grt.Config{Workers: 4, Sched: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			j, err := rt.Submit(ctx, spinForever)
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond) // let the tree get going
			start := time.Now()
			cancel()
			_, werr := j.Wait()
			if !errors.Is(werr, context.Canceled) {
				t.Fatalf("Wait after cancel = %v, want context.Canceled", werr)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("Wait took %v after cancel; poisoning is not prompt", d)
			}
			// The workers survived: the same runtime takes and finishes new work.
			var leaves atomic.Int64
			j2, err := rt.Submit(context.Background(), func(r *grt.T) { forkTree(r, 6, &leaves) })
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j2.Wait(); err != nil {
				t.Fatalf("job after a canceled job failed: %v", err)
			}
			if leaves.Load() != 64 {
				t.Fatalf("leaves = %d, want 64", leaves.Load())
			}
			if err := rt.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			waitNoLeaks(t, base)
		})
	}
}

func TestCancelDeadlineExceeded(t *testing.T) {
	base := runtime.NumGoroutine()
	rt, err := grt.New(grt.Config{Workers: 2, Sched: grt.DFDeques, K: 1 << 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	j, err := rt.Submit(ctx, spinForever)
	if err != nil {
		t.Fatal(err)
	}
	_, werr := j.Wait()
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want context.DeadlineExceeded", werr)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitNoLeaks(t, base)
}

func TestCancelSweepsLockBlockedThreads(t *testing.T) {
	// Children park on a mutex the root holds forever; cancellation must
	// pull them off the waiter list and retire them, or Shutdown hangs.
	base := runtime.NumGoroutine()
	rt, err := grt.New(grt.Config{Workers: 4, Sched: grt.DFDeques, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	j, err := rt.Submit(ctx, func(r *grt.T) {
		var m grt.Mutex
		m.Lock(r)
		for i := 0; i < 3; i++ {
			r.Fork(func(c *grt.T) {
				m.Lock(c) // never granted: the root never unlocks
				m.Unlock(c)
			})
		}
		spinForever(r) // keep holding m; dies only by poison
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the children block
	cancel()
	if _, werr := j.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", werr)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung: lock-blocked threads were not swept")
	}
	waitNoLeaks(t, base)
}

func TestCancelSweepsFutureBlockedThreads(t *testing.T) {
	base := runtime.NumGoroutine()
	rt, err := grt.New(grt.Config{Workers: 4, Sched: grt.DFDeques, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var fut grt.Future // never set
	j, err := rt.Submit(ctx, func(r *grt.T) {
		for i := 0; i < 3; i++ {
			r.Fork(func(c *grt.T) { fut.Get(c) })
		}
		spinForever(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	if _, werr := j.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", werr)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitNoLeaks(t, base)
}

func TestCancelOnPanicIsolatesJobs(t *testing.T) {
	// A panicking thread body fails its own job — surfacing the error
	// through Job.Wait — while the workers and later jobs are untouched.
	base := runtime.NumGoroutine()
	rt, err := grt.New(grt.Config{Workers: 2, Sched: grt.DFDeques, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := rt.Submit(context.Background(), func(r *grt.T) {
		h := r.Fork(func(c *grt.T) { panic("boom") })
		var leaves atomic.Int64
		forkTree(r, 4, &leaves)
		r.Join(h)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := j1.Wait(); werr == nil || !strings.Contains(werr.Error(), "panicked") {
		t.Fatalf("Wait = %v, want a thread-panicked error", werr)
	}
	var leaves atomic.Int64
	j2, err := rt.Submit(context.Background(), func(r *grt.T) { forkTree(r, 6, &leaves) })
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := j2.Wait(); werr != nil {
		t.Fatalf("job after a panicked job failed: %v", werr)
	}
	if leaves.Load() != 64 {
		t.Fatalf("leaves = %d, want 64", leaves.Load())
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitNoLeaks(t, base)
}

func TestShutdownAfterDisciplineViolationStaysUsable(t *testing.T) {
	// The nested-parallel discipline violations (unjoined children,
	// non-LIFO joins) panic inside the thread body; the runtime must
	// fail the job, keep its workers, and shut down clean.
	violations := []struct {
		name string
		body func(*grt.T)
	}{
		{"UnjoinedChildren", func(r *grt.T) {
			r.Fork(func(*grt.T) {})
		}},
		{"NonLIFOJoin", func(r *grt.T) {
			h1 := r.Fork(func(*grt.T) {})
			h2 := r.Fork(func(*grt.T) {})
			r.Join(h1)
			r.Join(h2)
		}},
	}
	for _, v := range violations {
		t.Run(v.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			rt, err := grt.New(grt.Config{Workers: 2, Sched: grt.DFDeques, Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			j, err := rt.Submit(context.Background(), v.body)
			if err != nil {
				t.Fatal(err)
			}
			if _, werr := j.Wait(); werr == nil {
				t.Fatal("expected a discipline-violation error")
			}
			var leaves atomic.Int64
			j2, err := rt.Submit(context.Background(), func(r *grt.T) { forkTree(r, 5, &leaves) })
			if err != nil {
				t.Fatal(err)
			}
			if _, werr := j2.Wait(); werr != nil {
				t.Fatalf("job after a violation failed: %v", werr)
			}
			if err := rt.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			waitNoLeaks(t, base)
		})
	}
}

func TestShutdownDrainsInflightJobs(t *testing.T) {
	base := runtime.NumGoroutine()
	rt, err := grt.New(grt.Config{Workers: 4, Sched: grt.DFDeques, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*grt.Job
	var counts [3]atomic.Int64
	for i := 0; i < 3; i++ {
		i := i
		j, err := rt.Submit(context.Background(), func(r *grt.T) { forkTree(r, 8, &counts[i]) })
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d not done after a draining Shutdown", i)
		}
		if err := j.Err(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if counts[i].Load() != 256 {
			t.Fatalf("job %d leaves = %d, want 256", i, counts[i].Load())
		}
	}
	waitNoLeaks(t, base)
}

func TestShutdownAbortsWhenContextExpires(t *testing.T) {
	base := runtime.NumGoroutine()
	rt, err := grt.New(grt.Config{Workers: 2, Sched: grt.DFDeques, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	j, err := rt.Submit(context.Background(), spinForever)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	if err := rt.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	// The aborted job drained before Shutdown returned, with ErrShutdown.
	if _, werr := j.Wait(); !errors.Is(werr, grt.ErrShutdown) {
		t.Fatalf("Wait = %v, want ErrShutdown", werr)
	}
	waitNoLeaks(t, base)
}

func TestShutdownRefusesNewSubmissions(t *testing.T) {
	rt, err := grt.New(grt.Config{Workers: 1, Sched: grt.DFDeques, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := rt.Submit(context.Background(), func(*grt.T) {}); !errors.Is(err, grt.ErrShutdown) {
		t.Fatalf("Submit after Shutdown = %v, want ErrShutdown", err)
	}
	// Idempotent.
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestDrainTwoConcurrentJobsKeepsStatsSeparate(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			rt, err := grt.New(grt.Config{Workers: 4, Sched: k, Seed: 10})
			if err != nil {
				t.Fatal(err)
			}
			// Different tree depths so the two jobs' thread counts differ:
			// any cross-job bleed in the accounting shows up exactly.
			var l1, l2 atomic.Int64
			j1, err := rt.Submit(context.Background(), func(r *grt.T) { forkTree(r, 9, &l1) })
			if err != nil {
				t.Fatal(err)
			}
			j2, err := rt.Submit(context.Background(), func(r *grt.T) { forkTree(r, 8, &l2) })
			if err != nil {
				t.Fatal(err)
			}
			s1, err1 := j1.Wait()
			s2, err2 := j2.Wait()
			if err1 != nil || err2 != nil {
				t.Fatalf("waits: %v, %v", err1, err2)
			}
			if l1.Load() != 512 || l2.Load() != 256 {
				t.Fatalf("leaves = %d, %d; want 512, 256", l1.Load(), l2.Load())
			}
			// forkTree(d) forks 2^d−1 children; plus the root.
			if s1.TotalThreads != 512 {
				t.Errorf("job1 TotalThreads = %d, want 512", s1.TotalThreads)
			}
			if s2.TotalThreads != 256 {
				t.Errorf("job2 TotalThreads = %d, want 256", s2.TotalThreads)
			}
			if s1.MaxLiveThreads < 1 || s1.MaxLiveThreads > 512 {
				t.Errorf("job1 MaxLiveThreads = %d out of range", s1.MaxLiveThreads)
			}
			if err := rt.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			waitNoLeaks(t, base)
		})
	}
}

func TestDrainManyJobsBackToBackOnWarmPool(t *testing.T) {
	base := runtime.NumGoroutine()
	rt, err := grt.New(grt.Config{Workers: 4, Sched: grt.DFDeques, K: 4096, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		var leaves atomic.Int64
		j, err := rt.Submit(context.Background(), func(r *grt.T) {
			forkTree(r, 5, &leaves)
			r.Alloc(16384) // crosses K: exercises the dummy transformation per job
			r.Free(16384)
		})
		if err != nil {
			t.Fatal(err)
		}
		js, werr := j.Wait()
		if werr != nil {
			t.Fatalf("job %d: %v", i, werr)
		}
		if leaves.Load() != 32 {
			t.Fatalf("job %d leaves = %d, want 32", i, leaves.Load())
		}
		if js.DummyThreads == 0 {
			t.Fatalf("job %d: expected dummy threads for the over-K allocation", i)
		}
		if js.HeapLive != 0 {
			t.Fatalf("job %d: HeapLive = %d, want 0", i, js.HeapLive)
		}
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitNoLeaks(t, base)
}

func TestCancelBeforeSubmitFailsFast(t *testing.T) {
	rt, err := grt.New(grt.Config{Workers: 1, Sched: grt.DFDeques, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Submit(ctx, func(*grt.T) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with canceled ctx = %v, want context.Canceled", err)
	}
}

// TestGrtParkBackoffBursts hammers the worker park/backoff protocol: a
// persistent runtime is left to go fully idle between bursts of
// concurrently submitted tiny jobs, so every burst must cross the
// park→wake transition — Submit's one signal racing workers that are
// mid-backoff or already on the condvar, the rest of the pool revived by
// one hunter's hand-off after another. A lost wakeup strands a job
// forever; the watchdog turns that hang into a failure. Run under -race
// this also certifies the ordering edges of the single-spinner gate.
func TestGrtParkBackoffBursts(t *testing.T) {
	const bursts, submitters, depth = 30, 4, 3
	rt, err := grt.New(grt.Config{Workers: 4, Sched: grt.DFDeques, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())

	done := make(chan struct{})
	var total atomic.Int64
	go func() {
		defer close(done)
		for burst := 0; burst < bursts; burst++ {
			errs := make(chan error, submitters)
			for i := 0; i < submitters; i++ {
				go func() {
					j, err := rt.Submit(context.Background(), func(r *grt.T) {
						var leaves atomic.Int64
						forkTree(r, depth, &leaves)
						total.Add(leaves.Load())
					})
					if err != nil {
						errs <- err
						return
					}
					_, werr := j.Wait()
					errs <- werr
				}()
			}
			for i := 0; i < submitters; i++ {
				if err := <-errs; err != nil {
					t.Errorf("burst %d: %v", burst, err)
				}
			}
			// Idle gap: give every worker time to park so the next
			// burst exercises wake-from-idle rather than steal-in-flight.
			time.Sleep(2 * time.Millisecond)
		}
	}()

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("burst stress hung: lost wakeup in the park/backoff protocol")
	}
	if want := int64(bursts * submitters * (1 << depth)); total.Load() != want {
		t.Errorf("leaves = %d, want %d", total.Load(), want)
	}
}

// TestDeadlockIdleRuntimeNeverCancels is the detector's negative case. A
// deadlock is "every worker parked, nothing published, a job in flight";
// a runtime with no job in flight parks all its workers and is merely
// idle, and a Submit that races the last worker's park publishes its job
// and its root together, so it is never caught with one and not the
// other. Tiny jobs back to back put every Submit in that window; the
// pauses let all workers park for real in between. A false positive
// would cancel the job with the deadlock error.
func TestDeadlockIdleRuntimeNeverCancels(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			rt, err := grt.New(grt.Config{Workers: 4, Sched: k, K: 4096, Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				if i%50 == 0 {
					time.Sleep(2 * time.Millisecond)
				}
				j, err := rt.Submit(context.Background(), func(r *grt.T) { r.ForkJoin(func(*grt.T) {}) })
				if err != nil {
					t.Fatal(err)
				}
				if _, werr := j.Wait(); werr != nil {
					t.Fatalf("job %d on an otherwise idle runtime: %v", i, werr)
				}
			}
			if err := rt.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			waitNoLeaks(t, base)
		})
	}
}

// TestCancelAfterFinishIsANoOp: a job's context canceled after the job
// completed must leave it completed — no error, no EvJobCancel, not
// counted as canceled. The submitter polls for the end without yielding
// its P, so a context watch that has not run yet finds both its context
// and the job's end ready when it does (a goroutine watch picked one of
// the two at random).
func TestCancelAfterFinishIsANoOp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := runtime.NumGoroutine()
	ctrs := rtrace.NewCounters()
	rt, err := grt.New(grt.Config{Workers: 1, Sched: grt.DFDeques, Seed: 3, Probe: ctrs})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*grt.Job, 300)
	for i := range jobs {
		ctx, cancel := context.WithCancel(context.Background())
		j, err := rt.Submit(ctx, func(*grt.T) {})
		if err != nil {
			t.Fatal(err)
		}
		for done := false; !done; {
			select {
			case <-j.Done():
				done = true
			default:
			}
		}
		cancel()
		if j.Cancel() {
			t.Fatalf("job %d: Cancel after Done reported a cancel", i)
		}
		jobs[i] = j
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitNoLeaks(t, base) // every watch has acted
	for i, j := range jobs {
		if err := j.Err(); err != nil {
			t.Fatalf("job %d: completed job reports %v after its context was canceled", i, err)
		}
	}
	if n := ctrs.Count(rtrace.EvJobCancel); n != 0 {
		t.Fatalf("%d EvJobCancel records for %d completed jobs", n, len(jobs))
	}
}

// TestCancelRacesJobEnd: contexts canceled right after Submit, racing
// jobs that end at once on another worker. Every job ends exactly one
// way: completed with no error, or canceled with its context's error and
// one EvJobCancel.
func TestCancelRacesJobEnd(t *testing.T) {
	ctrs := rtrace.NewCounters()
	rt, err := grt.New(grt.Config{Workers: 2, Sched: grt.DFDeques, Seed: 5, Probe: ctrs})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 400
	canceled := 0
	for i := 0; i < jobs; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		j, err := rt.Submit(ctx, func(*grt.T) {})
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		<-j.Done()
		switch err := j.Err(); {
		case err == nil:
		case errors.Is(err, context.Canceled):
			canceled++
		default:
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := ctrs.Count(rtrace.EvJobCancel); n != int64(canceled) {
		t.Fatalf("%d EvJobCancel records, %d jobs canceled", n, canceled)
	}
	t.Logf("%d of %d jobs canceled before their end", canceled, jobs)
}

// TestSubmitStartsNoWatcherGoroutine: a job submitted with a cancellable
// context costs no goroutine beyond its threads'. Jobs park their roots
// on a Future while a keeper job holds one worker busy (so the deadlock
// detector stays out of it), then the keeper sets the Future.
func TestSubmitStartsNoWatcherGoroutine(t *testing.T) {
	rt, err := grt.New(grt.Config{Workers: 2, Sched: grt.DFDeques, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	var f grt.Future
	var stop atomic.Bool
	keeperUp := make(chan struct{})
	keeper, err := rt.Submit(context.Background(), func(t *grt.T) {
		close(keeperUp)
		for !stop.Load() {
			runtime.Gosched()
		}
		f.Set(t, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-keeperUp
	base := runtime.NumGoroutine()

	const n = 100
	var parked atomic.Int64
	jobs := make([]*grt.Job, n)
	for i := range jobs {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		jobs[i], err = rt.Submit(ctx, func(t *grt.T) {
			parked.Add(1)
			f.Get(t)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for parked.Load() < n {
		runtime.Gosched()
	}
	// One goroutine per parked root thread, nothing per job besides.
	if grown := runtime.NumGoroutine() - base; grown > n+2 {
		t.Errorf("%d jobs parked on a Future: goroutines grew by %d, want at most %d (their threads)", n, grown, n+2)
	}
	stop.Store(true)
	if _, err := keeper.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if _, err := j.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}
