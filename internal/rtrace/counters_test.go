package rtrace_test

// Counters is the live (scrape-while-running) metrics probe; these tests
// pin that its projection agrees with the authoritative stream-derived
// Summarize when both observe the same run through a Tee.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dfdeques/internal/grt"
	"dfdeques/internal/rtrace"
)

// runTeed runs a workload with both a Recorder and a Counters attached
// and returns the stream summary next to the live one.
func runTeed(t *testing.T, workers int, k int64, body func(*grt.T)) (stream, live rtrace.Summary) {
	t.Helper()
	rec := rtrace.NewRecorder(workers, 0)
	ctr := rtrace.NewCounters()
	rt, err := grt.New(grt.Config{
		Workers: workers, Sched: grt.DFDeques, K: k,
		Probe: rtrace.Tee(rec, ctr),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j, err := rt.Submit(context.Background(), body)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	return rtrace.Summarize(rec.Meta(), rec.Events(), rec.Dropped()), ctr.LiveSummary()
}

func TestCountersMatchSummarize(t *testing.T) {
	var node func(t *grt.T, d int)
	node = func(t *grt.T, d int) {
		if d == 0 {
			t.Alloc(64)
			t.Free(64)
			return
		}
		h := t.Fork(func(c *grt.T) { node(c, d-1) })
		node(t, d-1)
		t.Join(h)
	}
	stream, live := runTeed(t, 4, 128, func(tt *grt.T) { node(tt, 6) })

	if stream.Dropped != 0 {
		t.Fatalf("stream dropped %d events; cross-check needs a complete stream", stream.Dropped)
	}
	type pair struct {
		name         string
		stream, live int64
	}
	pairs := []pair{
		{"Events", int64(stream.Events), int64(live.Events)},
		{"Threads", stream.Threads, live.Threads},
		{"DummyThreads", stream.DummyThreads, live.DummyThreads},
		{"Jobs", stream.Jobs, live.Jobs},
		{"CanceledJobs", stream.CanceledJobs, live.CanceledJobs},
		{"Completed", stream.Completed, live.Completed},
		{"Dispatches", stream.Dispatches, live.Dispatches},
		{"LocalDispatches", stream.LocalDispatches, live.LocalDispatches},
		{"Steals", stream.Steals, live.Steals},
		{"StealAttempts", stream.StealAttempts, live.StealAttempts},
		{"QuotaExhausts", stream.QuotaExhausts, live.QuotaExhausts},
		{"DummySplits", stream.DummySplits, live.DummySplits},
		{"Promotions", stream.Promotions, live.Promotions},
		{"DequeHighWater", int64(stream.DequeHighWater), int64(live.DequeHighWater)},
	}
	for _, p := range pairs {
		if p.stream != p.live {
			t.Errorf("%s: stream %d, live %d", p.name, p.stream, p.live)
		}
	}
	if stream.StealSuccessRate != live.StealSuccessRate {
		t.Errorf("StealSuccessRate: stream %v, live %v", stream.StealSuccessRate, live.StealSuccessRate)
	}
	if stream.SchedGranularity != live.SchedGranularity {
		t.Errorf("SchedGranularity: stream %v, live %v", stream.SchedGranularity, live.SchedGranularity)
	}
}

func TestTeeCompaction(t *testing.T) {
	ctr := rtrace.NewCounters()
	if p := rtrace.Tee(nil, nil); p != nil {
		t.Errorf("Tee(nil, nil) = %v, want nil", p)
	}
	if p := rtrace.Tee(nil, ctr, nil); p != any(ctr) {
		t.Errorf("Tee with one live probe should return it directly, got %T", p)
	}
	rec := rtrace.NewRecorder(1, 0)
	p := rtrace.Tee(rec, ctr)
	p.Event(0, rtrace.EvSteal, 1, 2, -1)
	p.Event(-1, rtrace.EvJobBegin, 1, 1, 0)
	if got := ctr.Count(rtrace.EvSteal); got != 1 {
		t.Errorf("counters saw %d steals, want 1", got)
	}
	if got := rec.Len(); got != 2 {
		t.Errorf("recorder retained %d events, want 2", got)
	}
}

// TestCountersSumTheirLanes drives one Counters from more recording workers
// than it has lanes, concurrently, next to the scheduler side: every lane
// is written, the high worker indices wrap onto lanes the low ones use, and
// Count and LiveSummary must still report exact sums.
func TestCountersSumTheirLanes(t *testing.T) {
	const workers, each = 40, 500
	ctr := rtrace.NewCounters()
	var wg sync.WaitGroup
	for w := -1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if w == -1 {
					ctr.Event(w, rtrace.EvJobBegin, int64(i), 0, 0)
					continue
				}
				ctr.Event(w, rtrace.EvFork, 1, 2, int64(i&1)) // every second one a dummy
				ctr.Event(w, rtrace.EvDispatch, 1, rtrace.SrcInline, 0)
			}
		}(w)
	}
	wg.Wait()
	if got := ctr.Count(rtrace.EvFork); got != workers*each {
		t.Errorf("Count(EvFork) = %d, want %d", got, workers*each)
	}
	s := ctr.LiveSummary()
	want := rtrace.Summary{
		Events: (2*workers + 1) * each, Jobs: each, Threads: (workers + 1) * each,
		DummyThreads: workers * each / 2, Dispatches: workers * each,
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("LiveSummary = %+v\nwant          %+v", s, want)
	}
}
