package grt_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfdeques/internal/grt"
	"dfdeques/internal/rtrace"
)

// allocTree is the job shape of the request mix that used to kill the
// process: a balanced fork tree whose leaves allocate and free n bytes.
func allocTree(t *grt.T, d int, n int64, leaves *atomic.Int64) {
	if d == 0 {
		t.Alloc(n)
		t.Free(n)
		leaves.Add(1)
		return
	}
	l := t.Fork(func(c *grt.T) { allocTree(c, d-1, n, leaves) })
	r := t.Fork(func(c *grt.T) { allocTree(c, d-1, n, leaves) })
	t.Join(r)
	t.Join(l)
}

// submitLoop runs four goroutines, each submitting a depth-4 alloc tree
// and waiting for it until more() says stop, so every Submit lands in an
// R whose deques other jobs' owners are working. It returns the number of
// jobs completed.
func submitLoop(t *testing.T, rt *grt.Runtime, more func(done int64) bool) int64 {
	t.Helper()
	var jobs, leaves atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more(jobs.Load()) {
				j, err := rt.Submit(context.Background(), func(r *grt.T) { allocTree(r, 4, 128, &leaves) })
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if _, err := j.Wait(); err != nil {
					t.Errorf("Wait: %v", err)
					return
				}
				jobs.Add(1)
			}
		}()
	}
	wg.Wait()
	if got, want := leaves.Load(), 16*jobs.Load(); got != want {
		t.Errorf("leaves = %d, want %d (16 per job)", got, want)
	}
	return jobs.Load()
}

// TestSubmitConcurrentWithRunningJob is the library-only reproducer of
// the Submit crash: 2 workers, DFDeques K=4096, four goroutines looping
// Submit+Wait. A root injected while another job's owner pops and
// recycles its deque top used to be compared against that top (a foreign
// PeekTop inside the placement scan) and nil-deref in the priority
// order. A second pass on one seed records the same mix and replays it:
// concurrent roots appended at the right end of R keep Lemma 3.1 exact.
func TestSubmitConcurrentWithRunningJob(t *testing.T) {
	dur := 3 * time.Second
	if testing.Short() {
		dur = 500 * time.Millisecond
	}
	cfg := grt.Config{Workers: 2, Sched: grt.DFDeques, K: 4096, Seed: 1}

	rt, err := grt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(dur)
	jobs := submitLoop(t, rt, func(int64) bool { return time.Now().Before(deadline) })
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	t.Logf("%d jobs in %v", jobs, dur)
	if jobs < 100 {
		t.Fatalf("only %d jobs in %v: the mix never overlapped a Submit with a running job", jobs, dur)
	}

	const traced = 200
	rec := rtrace.NewRecorder(cfg.Workers, 1<<17)
	cfg.Probe = rec
	rt, err = grt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitLoop(t, rt, func(done int64) bool { return done < traced })
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; raise the buffer", rec.Dropped())
	}
	rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.OrderingExact {
		t.Fatalf("ordering checks were disabled on a lock-free multi-job stream: %v", rep.Notes)
	}
	if rep.Jobs < traced {
		t.Fatalf("replay saw %d jobs, want >= %d", rep.Jobs, traced)
	}
}
