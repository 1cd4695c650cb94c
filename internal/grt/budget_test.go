package grt

// Budget is the multi-tenant memory-quota layer: jobs submitted with one
// (SubmitWith) charge a shared live-heap balance, the job whose
// allocation crosses the limit dies with ErrBudget, and a retiring job
// settles its final balance back into the group. These tests pin the
// enforcement, the settlement, and the atomicMax high-water accounting
// under racing allocations (run under -race in tier-1 verify).

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func newTestRT(t *testing.T, workers int) *Runtime {
	t.Helper()
	rt, err := New(Config{Workers: workers, Sched: DFDeques, K: 1024})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := rt.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return rt
}

func TestBudgetKillsOverrunningJob(t *testing.T) {
	rt := newTestRT(t, 2)
	b := NewBudget(10_000)

	// A job that allocates past the limit without freeing dies with
	// ErrBudget; a job in a different budget is untouched.
	over, err := rt.SubmitWith(context.Background(), func(tt *T) {
		for i := 0; i < 100; i++ {
			tt.Alloc(512)
		}
	}, SubmitOpts{Budget: b})
	if err != nil {
		t.Fatalf("SubmitWith: %v", err)
	}
	other := NewBudget(10_000)
	ok, err := rt.SubmitWith(context.Background(), func(tt *T) {
		tt.Alloc(512)
		tt.Free(512)
	}, SubmitOpts{Budget: other})
	if err != nil {
		t.Fatalf("SubmitWith: %v", err)
	}

	if _, err := over.Wait(); !errors.Is(err, ErrBudget) {
		t.Errorf("over-budget job: Wait = %v, want ErrBudget", err)
	}
	if _, err := ok.Wait(); err != nil {
		t.Errorf("in-budget job: Wait = %v, want nil", err)
	}
	if got := b.Kills(); got != 1 {
		t.Errorf("Kills = %d, want 1", got)
	}
	if got := other.Kills(); got != 0 {
		t.Errorf("other budget Kills = %d, want 0", got)
	}
	if got := b.HeapHW(); got <= 10_000 {
		t.Errorf("HeapHW = %d, want > limit (the overrunning charge)", got)
	}
}

func TestBudgetSettlesOnJobEnd(t *testing.T) {
	rt := newTestRT(t, 2)
	b := NewBudget(0) // accounting only: 0 means no quota (∞)

	// A leaky job (allocates, never frees) must not consume the group's
	// balance after it retires.
	j, err := rt.SubmitWith(context.Background(), func(tt *T) {
		tt.Alloc(5000)
	}, SubmitOpts{Budget: b})
	if err != nil {
		t.Fatalf("SubmitWith: %v", err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := b.HeapLive(); got != 0 {
		t.Errorf("HeapLive after retirement = %d, want 0 (settled)", got)
	}
	if got := b.HeapHW(); got != 5000 {
		t.Errorf("HeapHW = %d, want 5000", got)
	}
	if got := b.Kills(); got != 0 {
		t.Errorf("Kills = %d, want 0 for an unlimited budget", got)
	}
}

// TestBudgetRefusesAnUncoveredFree: dag.Validate keeps uncovered frees out
// of spec programs, but a closure is never validated. A budgeted job whose
// free would take its live heap below zero fails with ErrUncoveredFree,
// the free is undone, and its budget never goes below zero — so it lends
// its group no credit.
func TestBudgetRefusesAnUncoveredFree(t *testing.T) {
	rt := newTestRT(t, 1)
	b := NewBudget(10_000)
	j, err := rt.SubmitWith(context.Background(), func(tt *T) {
		tt.Alloc(100)
		tt.Free(1 << 30)
		tt.Alloc(1 << 20)
	}, SubmitOpts{Budget: b})
	if err != nil {
		t.Fatalf("SubmitWith: %v", err)
	}
	if _, err := j.Wait(); !errors.Is(err, ErrUncoveredFree) {
		t.Errorf("Wait = %v, want ErrUncoveredFree", err)
	}
	if live, hw := b.HeapLive(), b.HeapHW(); live != 0 || hw != 100 {
		t.Errorf("budget live %d, high-water %d; want 0 (settled), 100 (the covered alloc)", live, hw)
	}
}

// TestJobHeapHWConcurrent pins the atomicMax high-water accounting under
// racing allocations: many threads of one job allocate and free
// concurrently, and HeapHW must land between one thread's peak and the
// sum of all peaks while HeapLive returns to zero.
func TestJobHeapHWConcurrent(t *testing.T) {
	rt := newTestRT(t, 4)
	const (
		children = 8
		rounds   = 200
		each     = 64
	)
	j, err := rt.Submit(context.Background(), func(tt *T) {
		hs := make([]*T, 0, children)
		for i := 0; i < children; i++ {
			hs = append(hs, tt.Fork(func(c *T) {
				for r := 0; r < rounds; r++ {
					c.Alloc(each)
					c.Free(each)
				}
			}))
		}
		for i := len(hs) - 1; i >= 0; i-- {
			tt.Join(hs[i])
		}
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.HeapLive != 0 {
		t.Errorf("HeapLive = %d, want 0 (frees match allocs)", st.HeapLive)
	}
	if st.HeapHW < each || st.HeapHW > children*each {
		t.Errorf("HeapHW = %d, want in [%d, %d]", st.HeapHW, each, children*each)
	}
}

// TestBudgetHeapHWConcurrentJobs races many whole jobs against one shared
// budget: the group high-water must be at least one job's peak and at
// most the sum, and the balance must settle to zero after all retire.
func TestBudgetHeapHWConcurrentJobs(t *testing.T) {
	rt := newTestRT(t, 4)
	b := NewBudget(0)
	const (
		jobs = 6
		peak = 512
	)
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		j, err := rt.SubmitWith(context.Background(), func(tt *T) {
			for r := 0; r < 100; r++ {
				tt.Alloc(peak)
				tt.Free(peak)
			}
		}, SubmitOpts{Budget: b})
		if err != nil {
			t.Fatalf("SubmitWith %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = j.Wait()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	if got := b.HeapLive(); got != 0 {
		t.Errorf("HeapLive after all jobs = %d, want 0", got)
	}
	if hw := b.HeapHW(); hw < peak || hw > jobs*peak {
		t.Errorf("HeapHW = %d, want in [%d, %d]", hw, peak, jobs*peak)
	}
}

func TestNewBudgetNegativeMeansUnlimited(t *testing.T) {
	b := NewBudget(-5)
	if got := b.Limit(); got != 0 {
		t.Errorf("Limit = %d, want 0 (negative clamps to no quota)", got)
	}
}
