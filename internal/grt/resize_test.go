package grt

// Online budget resizing (Budget.SetLimit) and the exported job kill
// switch (Job.Cancel) — the two runtime hooks the serving layer's v1
// surface leans on: PUT /v1/tenants/{id} resizes a tenant's budget while
// its jobs are in flight, and DELETE /v1/jobs/{id} poisons a running job.
//
// The in-flight jobs here idle by spinning on fork-join scheduling
// points rather than parking on a Future: a lone job blocked on a
// never-set future is exactly what the deadlock detector exists to
// kill.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestBudgetSetLimitOnline pins the §7 semantics of a live resize: the
// new limit governs the *next* charge. Shrinking below the current live
// heap does not retroactively kill anything; the next allocation that
// lands past the new line does. Clearing the limit (negative clamps to
// 0 = unlimited) immediately stops further kills.
func TestBudgetSetLimitOnline(t *testing.T) {
	rt := newTestRT(t, 2)
	b := NewBudget(1 << 20)

	// Phase 1: allocate 6000, spin over scheduling points until
	// released, then try 3000 more.
	var release atomic.Bool
	held := make(chan struct{})
	j, err := rt.SubmitWith(context.Background(), func(tt *T) {
		tt.Alloc(6000)
		close(held)
		for !release.Load() {
			tt.ForkJoin(func(*T) {})
		}
		tt.Alloc(3000) // crosses the shrunken limit below
	}, SubmitOpts{Budget: b})
	if err != nil {
		t.Fatalf("SubmitWith: %v", err)
	}
	<-held

	// Shrink under the live heap: nothing dies until the next charge,
	// even though the job keeps hitting scheduling points while over
	// the new line.
	b.SetLimit(4096)
	if got := b.Limit(); got != 4096 {
		t.Fatalf("Limit after SetLimit(4096) = %d", got)
	}
	time.Sleep(10 * time.Millisecond)
	if got := b.Kills(); got != 0 {
		t.Fatalf("shrink retroactively killed: Kills = %d", got)
	}

	// Release the spin; the job's next Alloc lands past the new line
	// and dies with ErrBudget.
	release.Store(true)
	if _, err := j.Wait(); !errors.Is(err, ErrBudget) {
		t.Fatalf("post-shrink alloc: Wait = %v, want ErrBudget", err)
	}
	if got := b.Kills(); got != 1 {
		t.Fatalf("Kills = %d, want 1", got)
	}
	if got := b.HeapLive(); got != 0 {
		t.Fatalf("HeapLive after settle = %d, want 0", got)
	}

	// Phase 2: the same allocation passes once the quota is cleared
	// (negative input clamps to 0 = unlimited).
	b.SetLimit(-5)
	if got := b.Limit(); got != 0 {
		t.Fatalf("Limit after SetLimit(-5) = %d, want 0 (unlimited)", got)
	}
	ok, err := rt.SubmitWith(context.Background(), func(tt *T) {
		tt.Alloc(9000)
		tt.Free(9000)
	}, SubmitOpts{Budget: b})
	if err != nil {
		t.Fatalf("SubmitWith: %v", err)
	}
	if _, err := ok.Wait(); err != nil {
		t.Fatalf("unlimited job: Wait = %v, want nil", err)
	}
	if got := b.Kills(); got != 1 {
		t.Fatalf("Kills moved after clearing the quota: %d", got)
	}
}

// TestJobCancelExported pins the API-level kill switch: Cancel poisons a
// running job exactly like its submission context firing, Wait returns
// context.Canceled promptly, and only the first call reports true.
func TestJobCancelExported(t *testing.T) {
	rt := newTestRT(t, 2)

	// A job spinning over fork-join scheduling points can only end by
	// poisoning.
	started := make(chan struct{})
	j, err := rt.Submit(context.Background(), func(tt *T) {
		close(started)
		for {
			tt.ForkJoin(func(*T) {})
		}
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	if !j.Cancel() {
		t.Fatal("first Cancel of a running job reported false")
	}
	if j.Cancel() {
		t.Fatal("second Cancel reported true; want idempotent false")
	}
	// Wait must return promptly even though the poisoned tree drains in
	// the background — bound it so a regression hangs loudly.
	waited := make(chan error, 1)
	go func() {
		_, werr := j.Wait()
		waited <- werr
	}()
	select {
	case werr := <-waited:
		if !errors.Is(werr, context.Canceled) {
			t.Fatalf("Wait after Cancel = %v, want context.Canceled", werr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after Cancel")
	}

	// Cancel after completion is a no-op reporting false.
	done, err := rt.Submit(context.Background(), func(tt *T) {})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := done.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if done.Cancel() {
		t.Fatal("Cancel of a finished job reported true")
	}
}
