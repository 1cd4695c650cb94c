package grt

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dfdeques/internal/rtrace"
)

// slotCounter is a probe that counts its calls: the ring slots a Recorder
// beside it writes, one per record or burst. hunt counts the idle hunt's
// own slots, a plain EvIdle or EvStealAttempt each.
type slotCounter struct{ n, hunt atomic.Int64 }

func (s *slotCounter) Event(w int, k rtrace.Kind, a, b, c int64) {
	s.n.Add(1)
	if k == rtrace.EvIdle || k == rtrace.EvStealAttempt {
		s.hunt.Add(1)
	}
}

// forkTree is the benchmark's lib-forkjoin-fine job (bench/dfdbench
// lib.go) without its leaf work: a binary fork tree of depth d whose inner
// nodes allocate, fork one half, descend into the other, join and free.
func forkTree(t *T, d int) {
	if d == 0 {
		return
	}
	t.Alloc(64)
	h := t.Fork(func(c *T) { forkTree(c, d-1) })
	forkTree(t, d-1)
	t.Join(h)
	t.Free(64)
}

// TestVerifyBurstStreams records the benchmark's two library jobs — the
// quota chain (2,048 links, K = 128) and the depth-12 fork tree (K =
// 4096) — at 2 and 4 workers, through a Recorder, a live Counters and a
// call counter at once. The stream must replay with Lemma 3.1 checked at
// every step, it must hold records only (every burst expanded), and its
// per-kind counts must equal the Counters', which expand the same calls
// as they arrive. On the 2-worker chain the bursts must keep the ring
// writes at 11.5 a thread or fewer, where the stream holds ~17.9 records a
// thread. Of those slots, the idle hunt's are ~1.1 a thread on a quiet
// 2-vCPU host and up to 2.5 beside two busy loops: how long a worker
// hunts follows the host, not the program. So the bound is on the other
// slots, the program's decisions: 11.5 - 1.1 = 10.4 a thread (they read
// 9.3-9.4 either way).
func TestVerifyBurstStreams(t *testing.T) {
	runs := []struct {
		name string
		k    int64
		body func(r *T)
	}{
		{"chain", chainK, func(r *T) { quotaChain(r, 2048, new(atomic.Int64), nil) }},
		{"tree", 4096, func(r *T) { forkTree(r, 12) }},
	}
	for _, workers := range []int{2, 4} {
		for _, tc := range runs {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, workers), func(t *testing.T) {
				rec := rtrace.NewRecorder(workers, 1<<16)
				ctr := rtrace.NewCounters()
				slots := new(slotCounter)
				if _, err := Run(Config{Workers: workers, Sched: DFDeques, K: tc.k, Seed: 1, Probe: rtrace.Tee(rec, ctr, slots)}, tc.body); err != nil {
					t.Fatal(err)
				}
				verifyExact(t, rec)
				evs := rec.Events()
				counts := map[rtrace.Kind]int64{}
				for _, e := range evs {
					if e.Kind >= rtrace.BurstForkPush {
						t.Fatalf("stream holds a burst: %v", e)
					}
					counts[e.Kind]++
				}
				for k := rtrace.Kind(0); k < rtrace.BurstForkPush; k++ {
					if got, want := counts[k], ctr.Count(k); got != want {
						t.Errorf("%v: %d records in the stream, %d counted live", k, got, want)
					}
				}
				threads := float64(ctr.LiveSummary().Threads)
				all, hunt := float64(slots.n.Load())/threads, float64(slots.hunt.Load())/threads
				t.Logf("a thread: %.1f records, %.1f ring slots, %.2f of them the idle hunt's", float64(len(evs))/threads, all, hunt)
				if tc.name == "chain" && workers == 2 && all-hunt > 10.4 {
					t.Errorf("%.2f ring slots written a thread besides the idle hunt's, want at most 10.4", all-hunt)
				}
			})
		}
	}
}
