package grt_test

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"

	"dfdeques/internal/grt"
)

// TestForkPathMutexFree pins the fork path the way
// policy.TestStealPathMutexFree pins the steal path: depth-12 fork trees
// on 4 workers under a 1-in-1 mutex profile, and no contended acquisition
// may be reached from a thread's fork, its inline join, its exit or its
// suspension at a join — the paths that used to take the global priority
// lock twice per thread. The profile only samples contended acquisitions,
// and the locks those paths still legitimately reach are named below and
// are not runtime-global per-fork locks.
func TestForkPathMutexFree(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	rt, err := grt.New(grt.Config{Workers: 4, Sched: grt.DFDeques, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := 40
	if testing.Short() {
		jobs = 10
	}
	for i := 0; i < jobs; i++ {
		var leaves atomic.Int64
		j, err := rt.Submit(context.Background(), func(r *grt.T) { forkTree(r, 12, &leaves) })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil || leaves.Load() != 1<<12 {
			t.Fatalf("job %d: err = %v, leaves = %d", i, err, leaves.Load())
		}
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatalf("mutex profile: %v", err)
	}
	// One stanza per sample: a counts line, then "#\t<pc>\t<func>+<off>\t
	// <file:line>" frames, innermost first.
	for _, sample := range strings.Split(buf.String(), "\n\n") {
		var stack []string
		for _, line := range strings.Split(sample, "\n") {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
				stack = append(stack, f[2])
			}
		}
		if why := forkPathLock(stack); why != "" {
			t.Errorf("contended mutex %s:\n%s", why, sample)
		}
	}
}

// forkPathLock says why a contended-mutex stack (innermost frame first)
// breaks the fork-path claim, or "" if it does not.
func forkPathLock(stack []string) string {
	has := func(frame string, names ...string) bool {
		for _, n := range names {
			if strings.Contains(frame, n) {
				return true
			}
		}
		return false
	}
	for i, frame := range stack {
		switch {
		case has(frame, "grt.(*idle).wakeOne", "sync.(*Pool)"):
			// Idle parking (idle.mu, taken only when a worker sleeps and
			// nobody spins) and the frame pool re-registering with the Go
			// runtime after a GC: neither is per fork.
			return ""
		case has(frame, "grt.(*T).registerWaiter") && i+1 < len(stack) && has(stack[i+1], "grt.(*T).Join"):
			// The join protocol's per-thread lock, contended by a finishing
			// child, taken by a joiner that found the child live elsewhere
			// (under joinInline too, when the joiner runs inline).
			return ""
		case has(frame, "grt.(*T).fork", "grt.(*Runtime).noteFork", "grt.(*T).joinInline"):
			return "on the fork path (" + frame + ")"
		case has(frame, "grt.(*Runtime).worker", "grt.(*T).exit", "grt.(*T).suspend"):
			// The worker loop, a thread's exit and a join's suspension may
			// block only in what they call by name: the join protocol's
			// per-thread lock, job retirement (once a job), the policy's own
			// locks, and idle parking.
			if i > 0 && !has(stack[i-1], "grt.(*T).finish", "grt.(*T).registerWaiter",
				"grt.(*Runtime).finishJob", "grt.(*Runtime).acquire", "grt.(*Runtime).next", "internal/policy.") {
				return "in " + frame + ", via " + stack[i-1]
			}
			return ""
		}
	}
	return ""
}
