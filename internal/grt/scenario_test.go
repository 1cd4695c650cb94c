package grt_test

// The irregular-workload scenario suite on the real runtime: the three
// internal/workload scenarios (pipeline with bounded-buffer backpressure,
// streaming windowed reduce, random task graph) run under every policy,
// each run replay-verified and scored by the cache-complexity replay.
// These are the blocking/unblocking Future and Mutex paths §5 warns
// degrade the 1DF order — exactly what the fully-strict simulator
// cross-checks cannot reach.
//
// Several sub-tests below carry "channel" and "coarse" in their names.
// Those are frozen test IDs from when the suite crossed two frame engines
// with two locking protocols: the repo's test floor names them and a PR
// may retire only a few IDs, so they survive as labels of independent
// repeat runs (each on its own steal seed) of the one engine there is.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dfdeques/internal/grt"
	"dfdeques/internal/rtrace"
	"dfdeques/internal/workload"
)

// scenarioK is the memory threshold for the scenario runs: at least
// maxScenarioAlloc, so no dummy trees fork and workload.Scenario.Threads
// is the exact thread count, while still small enough that quota
// preemptions occur under DFDeques and ADF.
const scenarioK = 512

type scenarioPolicy struct {
	name string
	kind grt.Kind
	k    int64
}

func scenarioPolicies() []scenarioPolicy {
	return []scenarioPolicy{
		{"DFD", grt.DFDeques, scenarioK},
		{"DFD-inf", grt.DFDeques, 0},
		{"WS", grt.WS, 0},
		{"ADF", grt.ADF, scenarioK},
		{"FIFO", grt.FIFO, 0},
	}
}

// runScenario executes one scenario on a fresh traced runtime and returns
// its checksum and the recorder.
func runScenario(t *testing.T, sc workload.Scenario, cfg grt.Config, scfg workload.ScenarioConfig) (uint64, *rtrace.Recorder) {
	t.Helper()
	rec := rtrace.NewRecorder(cfg.Workers, 1<<16)
	cfg.Probe = rec
	rt, err := grt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sc.Run(context.Background(), rt, scfg)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("%s: shutdown: %v", sc.Name, err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("%s: ring dropped %d events; raise the buffer", sc.Name, rec.Dropped())
	}
	return sum, rec
}

// TestScenarioCrossEngine is the suite's invariant matrix: every scenario
// × every policy × six runs (two on one worker, four on four). Each run
// must produce the serial reference checksum, the exact thread and job
// populations, a replay-verifiable trace, and a cache-complexity report.
func TestScenarioCrossEngine(t *testing.T) {
	scfg := workload.ScenarioConfig{Seed: 21, Scale: 1}
	cells := []struct {
		name    string // frozen ID suffix; see the file comment
		workers int
	}{
		{"p1", 1}, {"p4", 4}, {"p4/coarse", 4},
		{"p1/channel", 1}, {"p4/channel", 4}, {"p4/channel/coarse", 4},
	}
	for _, sc := range workload.Scenarios() {
		want := sc.Expect(scfg)
		for _, pol := range scenarioPolicies() {
			for i, cell := range cells {
				t.Run(fmt.Sprintf("%s/%s/%s", sc.Name, pol.name, cell.name), func(t *testing.T) {
					sum, rec := runScenario(t, sc, grt.Config{
						Workers: cell.workers, Sched: pol.kind, K: pol.k, Seed: 17 + int64(i),
					}, scfg)
					if sum != want {
						t.Errorf("checksum %#x, want %#x", sum, want)
					}

					s := rtrace.Summarize(rec.Meta(), rec.Events(), rec.Dropped())
					if s.Threads != sc.Threads(scfg) {
						t.Errorf("threads = %d, want %d", s.Threads, sc.Threads(scfg))
					}
					if s.DummyThreads != 0 {
						t.Errorf("dummy threads = %d, want 0 (allocs ≤ K)", s.DummyThreads)
					}
					if s.Jobs != int64(sc.Jobs(scfg)) {
						t.Errorf("jobs = %d, want %d", s.Jobs, sc.Jobs(scfg))
					}
					if s.Cache == nil {
						t.Fatal("no cache-complexity report in the summary")
					}
					if s.Cache.Touches == 0 || s.Cache.SeqMisses == 0 {
						t.Errorf("degenerate cache report: touches=%d seq=%d",
							s.Cache.Touches, s.Cache.SeqMisses)
					}
					if s.Cache.ParMisses < s.Cache.SeqMisses {
						// Scenario footprints fit the 512 kB cache, so the
						// parallel replay (cold per-worker caches) can only
						// add misses over the single-cache baseline.
						t.Errorf("par misses %d < seq misses %d with an in-cache footprint",
							s.Cache.ParMisses, s.Cache.SeqMisses)
					}

					if rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped()); err != nil {
						t.Errorf("replay verification failed: %v\nreport: %+v", err, rep)
					}
				})
			}
		}
	}
}

// TestScenarioSeedDeterminism extends the seed_test.go pattern to the
// scenario suite: the same (Seed, Scale) must reproduce the same checksum
// and the same thread population on repeated runs, across policies.
func TestScenarioSeedDeterminism(t *testing.T) {
	scfg := workload.ScenarioConfig{Seed: 5, Scale: 1}
	for _, sc := range workload.Scenarios() {
		for _, kind := range []grt.Kind{grt.DFDeques, grt.WS} {
			var sums []uint64
			var threads []int64
			for run := 0; run < 2; run++ {
				sum, rec := runScenario(t, sc, grt.Config{
					Workers: 4, Sched: kind, K: scenarioK, Seed: 3,
				}, scfg)
				s := rtrace.Summarize(rec.Meta(), rec.Events(), rec.Dropped())
				sums = append(sums, sum)
				threads = append(threads, s.Threads)
			}
			if sums[0] != sums[1] {
				t.Errorf("%s/%v: checksums differ across identical runs: %#x vs %#x",
					sc.Name, kind, sums[0], sums[1])
			}
			if sums[0] != sc.Expect(scfg) {
				t.Errorf("%s/%v: checksum %#x, want serial reference %#x",
					sc.Name, kind, sums[0], sc.Expect(scfg))
			}
			if threads[0] != threads[1] {
				t.Errorf("%s/%v: thread counts differ across identical runs: %d vs %d",
					sc.Name, kind, threads[0], threads[1])
			}
		}
	}
}

// TestScenarioRaceStress is the suite's -race variant: bigger scenarios,
// more workers, no tracing — maximum real concurrency through the Future,
// Mutex, backpressure and multi-job paths.
func TestScenarioRaceStress(t *testing.T) {
	scfg := workload.ScenarioConfig{Seed: 33, Scale: 2}
	for _, sc := range workload.Scenarios() {
		for i, mode := range []struct {
			kind grt.Kind
			name string // frozen ID suffix; see the file comment
		}{
			{grt.DFDeques, "coarse=false/channel=false"}, {grt.WS, "coarse=true/channel=false"},
			{grt.DFDeques, "coarse=false/channel=true"}, {grt.WS, "coarse=true/channel=true"},
		} {
			t.Run(fmt.Sprintf("%s/%v/%s", sc.Name, mode.kind, mode.name), func(t *testing.T) {
				rt, err := grt.New(grt.Config{
					Workers: 8, Sched: mode.kind, K: scenarioK, Seed: 13 + int64(i),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Shutdown(context.Background())
				sum, err := sc.Run(context.Background(), rt, scfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := sc.Expect(scfg); sum != want {
					t.Errorf("checksum %#x, want %#x", sum, want)
				}
			})
		}
	}
}

// TestGrtStealHammer forces steals into in-flight inline execution. Each
// internal node forks a recursive child (which sits in the deque, exposed
// to the seven other workers) and then fork+joins a run of tiny leaves —
// those joins are inline calls racing against a concurrent bottom-steal of
// the very frame doing the calling. The leaves allocate past K so the
// deques keep getting shared and the steal rate stays high for the whole
// run. Under -race this cross-checks the promote-on-steal protocol against
// inline completion; the checksum pins that no fork is lost or run twice.
func TestGrtStealHammer(t *testing.T) {
	const depth, leavesPer = 11, 4
	// Expected increments: one per depth-0 call, leavesPer per internal node.
	var expect func(d int) int64
	expect = func(d int) int64 {
		if d == 0 {
			return 1
		}
		return 2*expect(d-1) + leavesPer
	}
	want := expect(depth)

	t.Run("cont", func(t *testing.T) {
		rt, err := grt.New(grt.Config{
			Workers: 8, Sched: grt.DFDeques, K: 64, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Shutdown(context.Background())

		var total atomic.Int64
		var rec func(c *grt.T, d int)
		rec = func(c *grt.T, d int) {
			if d == 0 {
				c.Alloc(96) // over quota: forces sharing, keeps steals flowing
				total.Add(1)
				c.Free(96)
				return
			}
			// Two recursive children bracket the leaf run, so the frame
			// is always stealable while it executes leaves inline.
			left := c.Fork(func(l *grt.T) { rec(l, d-1) })
			for i := 0; i < leavesPer; i++ {
				h := c.Fork(func(*grt.T) { total.Add(1) })
				c.Join(h)
			}
			right := c.Fork(func(r *grt.T) { rec(r, d-1) })
			c.Join(right)
			c.Join(left)
		}
		j, err := rt.Submit(context.Background(), func(root *grt.T) { rec(root, depth) })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := total.Load(); got != want {
			t.Errorf("total = %d, want %d: a fork was lost or run twice under steal pressure", got, want)
		}
	})
}

// TestGrtIrregularSubmitSoak sustains hundreds of concurrent jobs whose
// threads block and unblock on Futures mid-job — the irregular analogue of
// TestGrtParkBackoffBursts, with the same lost-progress watchdog. Gated by
// -short so quick iterations skip it; the tier-1 race pass runs it.
func TestGrtIrregularSubmitSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const submitters, rounds, readers = 8, 30, 8
	rt, err := grt.New(grt.Config{Workers: 4, Sched: grt.DFDeques, K: scenarioK, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())

	done := make(chan struct{})
	var total atomic.Int64
	go func() {
		defer close(done)
		errs := make(chan error, submitters)
		for s := 0; s < submitters; s++ {
			s := s
			go func() {
				for r := 0; r < rounds; r++ {
					j, err := rt.Submit(context.Background(), func(root *grt.T) {
						// Two futures set late, so the readers forked first
						// all suspend and are woken in a burst; a third is
						// set early, so TryGet-style fast paths mix in.
						var early, late1, late2 grt.Future
						early.Set(root, uint64(1))
						var got atomic.Int64
						var hs []*grt.T
						for i := 0; i < readers; i++ {
							i := i
							hs = append(hs, root.Fork(func(c *grt.T) {
								c.Alloc(160)
								v := late1.Get(c).(uint64) + early.Get(c).(uint64)
								if i%2 == 0 {
									v += late2.Get(c).(uint64)
								}
								c.Free(160)
								got.Add(int64(v))
							}))
						}
						late1.Set(root, uint64(10))
						late2.Set(root, uint64(100))
						for i := len(hs) - 1; i >= 0; i-- {
							root.Join(hs[i])
						}
						total.Add(got.Load())
					})
					if err != nil {
						errs <- fmt.Errorf("submitter %d round %d: %w", s, r, err)
						return
					}
					if _, werr := j.Wait(); werr != nil {
						errs <- fmt.Errorf("submitter %d round %d: %w", s, r, werr)
						return
					}
				}
				errs <- nil
			}()
		}
		for s := 0; s < submitters; s++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}()

	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("irregular submit soak hung: lost progress in the Future wake or park/backoff protocol")
	}
	// Per job: 8 readers × (10+1) plus the 4 even readers' ×100.
	perJob := int64(readers*11 + (readers/2)*100)
	if want := int64(submitters * rounds * int(perJob)); total.Load() != want {
		t.Errorf("sum = %d, want %d", total.Load(), want)
	}
}
