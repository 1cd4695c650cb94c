package rtrace_test

// End-to-end replay verification: record real concurrent runs of the
// grt runtime and replay them through the verifier. Every workload here
// is nested-parallel and lock-free, so the Lemma 3.1 ordering checks run
// at full strength (Report.OrderingExact).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"dfdeques/internal/grt"
	"dfdeques/internal/rtrace"
)

// The three verification workloads: a balanced fork-join tree, a
// sequential fork-join chain, and a divide-and-conquer allocator whose
// big allocations trigger the dummy-thread transformation and whose
// small ones exhaust the quota.

func tree(depth int) func(*grt.T) {
	var node func(t *grt.T, d int)
	node = func(t *grt.T, d int) {
		if d == 0 {
			t.Alloc(48)
			t.Free(48)
			return
		}
		l := t.Fork(func(c *grt.T) { node(c, d-1) })
		r := t.Fork(func(c *grt.T) { node(c, d-1) })
		t.Join(r)
		t.Join(l)
	}
	return func(t *grt.T) { node(t, depth) }
}

func chain(n int) func(*grt.T) {
	var link func(t *grt.T, i int)
	link = func(t *grt.T, i int) {
		if i == 0 {
			return
		}
		t.Alloc(96)
		t.ForkJoin(func(c *grt.T) { link(c, i-1) })
		t.Free(96)
	}
	return func(t *grt.T) { link(t, n) }
}

func bigAllocs(n int) func(*grt.T) {
	var node func(t *grt.T, i int)
	node = func(t *grt.T, i int) {
		if i == 0 {
			t.Alloc(1000) // > K for the K=256 runs: forks a dummy tree
			t.Free(1000)
			return
		}
		t.ForkJoin(func(c *grt.T) { node(c, i-1) })
		t.ForkJoin(func(c *grt.T) { node(c, i-1) })
	}
	return func(t *grt.T) { node(t, n) }
}

// record runs the workload under tracing and returns the recorder.
func record(t *testing.T, cfg grt.Config, body func(*grt.T)) *rtrace.Recorder {
	t.Helper()
	rec := rtrace.NewRecorder(cfg.Workers, 1<<16)
	cfg.Probe = rec
	if _, err := grt.Run(cfg, body); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; raise the buffer", rec.Dropped())
	}
	return rec
}

// TestVerifyRealRuns replays seeded real runs of three workloads under
// each scheduling policy and requires every invariant to hold.
func TestVerifyRealRuns(t *testing.T) {
	workloads := []struct {
		name string
		body func(*grt.T)
	}{
		{"tree", tree(6)},
		{"chain", chain(24)},
		{"bigalloc", bigAllocs(4)},
	}
	scheds := []struct {
		name string
		kind grt.Kind
		k    int64
	}{
		{"DFD", grt.DFDeques, 256},
		{"DFD-inf", grt.DFDeques, 0},
		{"WS", grt.WS, 0},
		{"ADF", grt.ADF, 256},
		{"FIFO", grt.FIFO, 256},
	}
	for _, wl := range workloads {
		for _, sc := range scheds {
			t.Run(wl.name+"/"+sc.name, func(t *testing.T) {
				t.Parallel()
				rec := record(t, grt.Config{
					Workers: 4, Sched: sc.kind, K: sc.k, Seed: 11,
				}, wl.body)
				rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped())
				if err != nil {
					t.Fatalf("replay verification failed: %v", err)
				}
				if !rep.OrderingExact {
					t.Fatalf("ordering checks degraded on a lock-free workload: %v", rep.Notes)
				}
				if rep.Threads < 2 {
					t.Fatalf("replay saw %d threads", rep.Threads)
				}
				if sc.k > 0 && sc.kind == grt.DFDeques && wl.name == "bigalloc" && rep.DummyThreads == 0 {
					t.Fatal("bigalloc run produced no dummy threads")
				}
			})
		}
	}
}

// TestVerifyForkThenContinueTree is the fork-then-continue shape — allocate,
// fork one half, descend into the other half inline, join, free — whose
// steals land on deques whose owner is mid inline fork/join chain. Under a
// child-first fork priority the thief took the victim's highest-priority
// thread and parked it to the right, and most of these runs failed Lemma
// 3.1's order on R; every run must replay with the ordering checks exact.
func TestVerifyForkThenContinueTree(t *testing.T) {
	var node func(t *grt.T, d int)
	node = func(t *grt.T, d int) {
		if d == 0 {
			return
		}
		t.Alloc(64)
		h := t.Fork(func(c *grt.T) { node(c, d-1) })
		node(t, d-1)
		t.Join(h)
		t.Free(64)
	}
	for _, workers := range []int{2, 4} {
		for seed := int64(1); seed <= 10; seed++ {
			rec := record(t, grt.Config{
				Workers: workers, Sched: grt.DFDeques, K: 4096, Seed: seed,
			}, func(t *grt.T) { node(t, 10) })
			rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped())
			if err != nil {
				t.Fatalf("p%d seed %d: replay verification failed: %v", workers, seed, err)
			}
			if !rep.OrderingExact {
				t.Fatalf("p%d seed %d: ordering checks degraded: %v", workers, seed, rep.Notes)
			}
		}
	}
}

// TestVerifyLockProgramDegradesGracefully: programs using Mutex leave the
// nested-parallel model, so the verifier must disable the ordering checks
// (§5) but still prove conservation and quota accounting.
func TestVerifyLockProgramDegradesGracefully(t *testing.T) {
	var mu grt.Mutex
	body := func(t *grt.T) {
		var hs []*grt.T
		for i := 0; i < 6; i++ {
			hs = append(hs, t.Fork(func(c *grt.T) {
				mu.Lock(c)
				c.Alloc(32)
				c.Free(32)
				mu.Unlock(c)
			}))
		}
		for i := len(hs) - 1; i >= 0; i-- {
			t.Join(hs[i])
		}
	}
	rec := record(t, grt.Config{Workers: 4, Sched: grt.DFDeques, K: 256, Seed: 5}, body)
	rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped())
	if err != nil {
		t.Fatalf("replay verification failed on a locking program: %v", err)
	}
	// Contention is scheduling-dependent: only assert degradation when a
	// lock block actually occurred.
	for _, e := range rec.Events() {
		if e.Kind == rtrace.EvBlock && e.B == rtrace.BlockLock {
			if rep.OrderingExact {
				t.Fatal("ordering still exact despite lock blocks")
			}
			return
		}
	}
}

// TestVerifyRejectsCorruptedStreams tampers with a genuine recorded
// stream in several ways; the verifier must reject every mutation.
func TestVerifyRejectsCorruptedStreams(t *testing.T) {
	rec := record(t, grt.Config{Workers: 4, Sched: grt.DFDeques, K: 256, Seed: 9}, tree(5))
	meta, good := rec.Meta(), rec.Events()
	if _, err := rtrace.Verify(meta, good, 0); err != nil {
		t.Fatalf("baseline stream must verify: %v", err)
	}
	clone := func() []rtrace.Event { return append([]rtrace.Event(nil), good...) }
	idxOf := func(k rtrace.Kind) int {
		for i := len(good) - 1; i >= 0; i-- {
			if good[i].Kind == k {
				return i
			}
		}
		t.Fatalf("stream has no %v event", k)
		return -1
	}

	cases := []struct {
		name   string
		mutate func([]rtrace.Event) []rtrace.Event
	}{
		{"phantom-thread-push", func(evs []rtrace.Event) []rtrace.Event {
			evs[idxOf(rtrace.EvPush)].A = 1 << 40
			return evs
		}},
		{"truncated-completion", func(evs []rtrace.Event) []rtrace.Event {
			i := idxOf(rtrace.EvComplete)
			return append(evs[:i], evs[i+1:]...)
		}},
		{"duplicated-sequence", func(evs []rtrace.Event) []rtrace.Event {
			evs[len(evs)/2].Seq = evs[len(evs)/2-1].Seq
			return evs
		}},
		{"stolen-wrong-end", func(evs []rtrace.Event) []rtrace.Event {
			// Claim the steal removed a different thread than the
			// victim's bottom.
			i := idxOf(rtrace.EvSteal)
			evs[i].A++
			return evs
		}},
		{"forged-quota", func(evs []rtrace.Event) []rtrace.Event {
			// An allocation far beyond K could never fit the quota.
			i := idxOf(rtrace.EvAlloc)
			evs[i].B = meta.K * 100
			return evs
		}},
		{"missing-job-begin", func(evs []rtrace.Event) []rtrace.Event {
			i := idxOf(rtrace.EvJobBegin)
			return append(evs[:i], evs[i+1:]...)
		}},
		{"no-job-at-all", func([]rtrace.Event) []rtrace.Event {
			return []rtrace.Event{{Seq: 1, W: 0, Kind: rtrace.EvIdle}}
		}},
	}
	reject := func(name string, evs []rtrace.Event) {
		t.Run(name, func(t *testing.T) {
			if _, err := rtrace.Verify(meta, evs, 0); err == nil {
				t.Fatal("verifier accepted a corrupted stream")
			} else if !strings.Contains(err.Error(), "rtrace:") {
				t.Fatalf("unexpected error shape: %v", err)
			}
		})
	}
	for _, tc := range cases {
		reject(tc.name, tc.mutate(clone()))
	}
	// Lane -1 carries only what the runtime records outside a worker; any
	// other kind stamped there must come back as an error, not as an index
	// panic in the per-worker model — both in place of a real record and
	// alone, where no thread lookup runs before the per-worker state.
	offWorker := map[rtrace.Kind]bool{
		rtrace.EvJobBegin: true, rtrace.EvJobAnnotate: true, rtrace.EvJobCancel: true,
		rtrace.EvDequeCreate: true, rtrace.EvPush: true, rtrace.EvQueuePush: true,
	}
	for k := rtrace.Kind(0); k <= rtrace.EvJobAnnotate; k++ {
		reject("lane-minus-one/"+k.String()+"/alone", []rtrace.Event{{Seq: 1, W: -1, Kind: k, A: 1, B: 8}})
		for i := len(good) - 1; i >= 0 && !offWorker[k]; i-- {
			if good[i].Kind == k {
				evs := clone()
				evs[i].W = -1
				reject("lane-minus-one/"+k.String()+"/in-place", evs)
				break
			}
		}
	}
	if _, err := rtrace.Verify(meta, good, 1); err == nil {
		t.Fatal("verifier accepted a stream with drops")
	}
	// Streams of the removed channel-frame engine ("channel", or unstamped)
	// forked child-first; replaying them under this model would be wrong,
	// so the metadata alone must get them refused.
	for _, engine := range []string{"", "channel"} {
		foreign := meta
		foreign.Engine = engine
		if _, err := rtrace.Verify(foreign, good, 0); err == nil || !strings.Contains(err.Error(), "no longer models") {
			t.Fatalf("engine %q: want a no-longer-modelled rejection, got %v", engine, err)
		}
	}
}

// TestExportRealRunLoadsBack exports a real run and checks the file both
// loads back for replay and verifies.
func TestExportRealRunLoadsBack(t *testing.T) {
	rec := record(t, grt.Config{Workers: 2, Sched: grt.DFDeques, K: 512, Seed: 2}, tree(5))
	var buf bytes.Buffer
	if err := rtrace.Export(&buf, rec.Meta(), rec.Events(), rec.Dropped()); err != nil {
		t.Fatalf("Export: %v", err)
	}
	meta, evs, dropped, err := rtrace.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := rtrace.Verify(meta, evs, dropped); err != nil {
		t.Fatalf("replay of exported file failed: %v", err)
	}
}

// TestExportIdleSpansNeverNegative: the idle record reads no clock — it
// takes the stamp of the record that closed the segment before it — so an
// idle stretch, from the idle record to the lane's next dispatch, must
// still come out non-negative, as must every execution slice of the
// exported file. The run gives its deque up at every link and at every
// dummy, so the fused give-up's order is in the stream: quota-exhaust,
// idle, then the steal's records ahead of the dispatch.
func TestExportIdleSpansNeverNegative(t *testing.T) {
	rec := record(t, grt.Config{Workers: 2, Sched: grt.DFDeques, K: 128, Seed: 5}, func(r *grt.T) {
		chain(24)(r)
		bigAllocs(3)(r)
	})
	type laneState struct {
		ts                int64
		idleAt            int64 // stamp of the open idle stretch, -1 if none
		exhausted, stolen bool  // since the last dispatch: a quota-exhaust, then an idle and a steal
	}
	lanes := map[int32]*laneState{}
	var idles, fused int
	for _, e := range rec.Events() {
		ln := lanes[e.W]
		if ln == nil {
			ln = &laneState{idleAt: -1}
			lanes[e.W] = ln
		}
		if e.TS < ln.ts {
			t.Fatalf("lane %d runs backwards at %v (previous stamp %d)", e.W, e, ln.ts)
		}
		ln.ts = e.TS
		switch e.Kind {
		case rtrace.EvQuotaExhaust:
			ln.exhausted = true
		case rtrace.EvIdle:
			ln.idleAt = e.TS
			idles++
		case rtrace.EvSteal:
			ln.stolen = ln.exhausted && ln.idleAt >= 0
		case rtrace.EvDispatch:
			if ln.idleAt >= 0 && e.TS < ln.idleAt {
				t.Fatalf("idle stretch of %d ns ends at %v", e.TS-ln.idleAt, e)
			}
			if ln.stolen {
				fused++
			}
			*ln = laneState{ts: e.TS, idleAt: -1}
		}
	}
	if idles == 0 || fused == 0 {
		t.Fatalf("%d idle records, %d give-ups in the order quota-exhaust, idle, steal, dispatch: the stream does not exercise what it checks", idles, fused)
	}

	var buf bytes.Buffer
	if err := rtrace.Export(&buf, rec.Meta(), rec.Events(), rec.Dropped()); err != nil {
		t.Fatalf("Export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	slices := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		slices++
		if e.Dur == nil || *e.Dur < 0 {
			t.Fatalf("slice %q has duration %v", e.Name, e.Dur)
		}
	}
	if slices == 0 {
		t.Fatal("no execution slices exported")
	}
}

// TestVerifyMultiJobStreamWithCancellation records a persistent runtime
// serving three jobs — two completing, one canceled mid-flight — and
// requires the replay to track each job's lifecycle: every thread
// attributed to its job, the canceled job drained through ordinary
// dispatches and completions, and all three jobs ended. The late roots
// are appended at the right end of R — their priority position — so the
// Lemma 3.1 ordering checks stay at full strength (the canceled spinner
// never blocks on a lock), at a finite K and under WS, which is
// DFDeques(∞). The exported file must round-trip through Load and verify
// identically (the dfdtrace -verify path).
func TestVerifyMultiJobStreamWithCancellation(t *testing.T) {
	spin := func(t *grt.T) {
		for {
			t.ForkJoin(func(*grt.T) {})
			// Throttle: an unstolen fork+join costs nanoseconds, and an
			// unthrottled spinner would overflow the recorder ring before
			// the cancel lands. The sleep bounds the
			// event rate, not the iteration count — the job still only
			// ends by poisoning.
			time.Sleep(20 * time.Microsecond)
		}
	}
	for _, sc := range []struct {
		name string
		kind grt.Kind
		k    int64
	}{
		{"DFD", grt.DFDeques, 256},
		{"WS", grt.WS, 0},
	} {
		t.Run(sc.name, func(t *testing.T) {
			rec := rtrace.NewRecorder(4, 1<<18)
			rt, err := grt.New(grt.Config{
				Workers: 4, Sched: sc.kind, K: sc.k, Seed: 13, Probe: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			jA, err := rt.Submit(context.Background(), tree(6))
			if err != nil {
				t.Fatal(err)
			}
			ctxB, cancelB := context.WithCancel(context.Background())
			defer cancelB()
			jB, err := rt.Submit(ctxB, spin)
			if err != nil {
				t.Fatal(err)
			}
			jC, err := rt.Submit(context.Background(), chain(12))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := jA.Wait(); err != nil {
				t.Fatalf("job A: %v", err)
			}
			if _, err := jC.Wait(); err != nil {
				t.Fatalf("job C: %v", err)
			}
			cancelB()
			if _, err := jB.Wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("job B: %v, want context.Canceled", err)
			}
			if err := rt.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if rec.Dropped() != 0 {
				t.Fatalf("ring dropped %d events; raise the buffer", rec.Dropped())
			}

			rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped())
			if err != nil {
				t.Fatalf("replay verification failed: %v", err)
			}
			if rep.Jobs != 3 {
				t.Fatalf("replay saw %d jobs, want 3", rep.Jobs)
			}
			if rep.CanceledJobs != 1 {
				t.Fatalf("replay saw %d canceled jobs, want 1", rep.CanceledJobs)
			}
			if !rep.OrderingExact {
				t.Fatalf("ordering checks degraded on a lock-free multi-job stream: %v", rep.Notes)
			}

			var buf bytes.Buffer
			if err := rtrace.Export(&buf, rec.Meta(), rec.Events(), rec.Dropped()); err != nil {
				t.Fatalf("Export: %v", err)
			}
			meta, evs, dropped, err := rtrace.Load(&buf)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			rep2, err := rtrace.Verify(meta, evs, dropped)
			if err != nil {
				t.Fatalf("replay of exported multi-job file failed: %v", err)
			}
			if rep2.Jobs != 3 || rep2.CanceledJobs != 1 {
				t.Fatalf("exported replay saw %d jobs / %d canceled, want 3 / 1", rep2.Jobs, rep2.CanceledJobs)
			}
			sum := rtrace.Summarize(meta, evs, dropped)
			if sum.Jobs != 3 || sum.CanceledJobs != 1 {
				t.Fatalf("summary has %d jobs / %d canceled, want 3 / 1", sum.Jobs, sum.CanceledJobs)
			}
			if sum.Threads != rep2.Threads {
				t.Fatalf("summary counts %d threads, replay %d", sum.Threads, rep2.Threads)
			}
		})
	}
}
