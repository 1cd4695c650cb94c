package grt

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dfdeques/internal/rtrace"
)

// slotCounter is a probe that counts its calls: the ring slots a Recorder
// beside it writes, one per record or burst. hunt counts the idle hunt's
// own slots — a plain EvIdle or EvStealAttempt, or a burst of the hunt's
// failed screens — and clock the slots that read the clock.
type slotCounter struct{ n, hunt, clock atomic.Int64 }

func (s *slotCounter) Event(w int, k rtrace.Kind, a, b, c int64) {
	s.n.Add(1)
	if k == rtrace.EvIdle || k == rtrace.EvStealAttempt || k == rtrace.BurstMisses {
		s.hunt.Add(1)
	}
	if k.ReadsClock() {
		s.clock.Add(1)
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
// as they arrive. On the 2-worker chain the stream holds ~18 records a
// thread. How many slots the idle hunt writes follows the host, not the
// program — how often a worker runs dry and how long it hunts — so the
// bound is on the other slots, the program's decisions: at most 8.0 a
// thread (they read 7.7-7.8, with a give-up written as two bursts), and
// at most 2.8 of all slots a thread may read the clock (~2.7: one read a
// give-up).
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
				clock := float64(slots.clock.Load()) / threads
				t.Logf("a thread: %.1f records, %.2f ring slots, %.2f of them the idle hunt's, %.2f reading the clock",
					float64(len(evs))/threads, all, hunt, clock)
				if tc.name == "chain" && workers == 2 && all-hunt > 8.0 {
					t.Errorf("%.2f ring slots written a thread besides the idle hunt's, want at most 8.0", all-hunt)
				}
				if tc.name == "chain" && workers == 2 && clock > 2.8 {
					t.Errorf("%.2f ring slots a thread read the clock, want at most 2.8", clock)
				}
			})
		}
	}
}

// missCounter is a probe that counts the slots of failed steal attempts
// that named no deque or an empty one: plain records, one a screen, and
// bursts of them.
type missCounter struct{ plain, bursts atomic.Int64 }

func (m *missCounter) Event(w int, k rtrace.Kind, a, b, c int64) {
	switch {
	case k == rtrace.EvStealAttempt && a == -1:
		m.plain.Add(1)
	case k == rtrace.BurstMisses:
		m.bursts.Add(1)
	}
}

// TestVerifyHuntFlushesItsAttempts: a hunting worker counts its failed
// screens and writes them as one burst, ahead of its steal or when it
// pauses to park, back off or stop — never one slot a screen — and none
// is lost: after a 2-worker run the stream's steal attempts are the
// policy's steals plus its failed attempts, hunts and give-ups together.
func TestVerifyHuntFlushesItsAttempts(t *testing.T) {
	var bursts int64
	for seed := int64(1); seed <= 3; seed++ {
		for _, tc := range []struct {
			name string
			k    int64
			body func(r *T)
		}{
			{"chain", chainK, func(r *T) { quotaChain(r, 512, new(atomic.Int64), nil) }},
			{"tree", 4096, func(r *T) { forkTree(r, 10) }},
		} {
			rec := rtrace.NewRecorder(2, 1<<16)
			misses := new(missCounter)
			st, err := Run(Config{Workers: 2, Sched: DFDeques, K: tc.k, Seed: seed, Probe: rtrace.Tee(rec, misses)}, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			verifyExact(t, rec)
			sum := rtrace.Summarize(rec.Meta(), rec.Events(), rec.Dropped())
			if want := st.Steals + st.FailedSteals; sum.StealAttempts != want {
				t.Errorf("%s, seed %d: %d steal attempts in the stream, want %d steals + %d failed = %d",
					tc.name, seed, sum.StealAttempts, st.Steals, st.FailedSteals, want)
			}
			if n := misses.plain.Load(); n != 0 {
				t.Errorf("%s, seed %d: %d failed screens written one slot each", tc.name, seed, n)
			}
			bursts += misses.bursts.Load()
		}
	}
	if bursts == 0 {
		t.Log("no hunt failed a screen: the flush went unexercised")
	}
}
