package rtrace_test

// Unit tests for the parallel cache-complexity replay: synthetic streams
// with known miss counts, and a real traced run feeding Summarize.

import (
	"testing"

	"dfdeques/internal/cache"
	"dfdeques/internal/grt"
	"dfdeques/internal/rtrace"
)

// ev builds one event; Seq is assigned by the caller in stream order.
func ev(seq uint64, w int32, k rtrace.Kind, a, b, c int64) rtrace.Event {
	return rtrace.Event{Seq: seq, W: w, Kind: k, A: a, B: b, C: c}
}

// TestCacheComplexitySynthetic replays a hand-built two-worker stream with
// known geometry: t1 forks t2, both touch the same 128-byte block (2 lines
// of 64 bytes) on different workers. The 1DF serial order runs t2's touch
// first (child executes at its fork point), so sequentially the block is
// loaded once (2 misses) and t1's touch hits; in parallel each worker's
// cache loads it cold (4 misses total).
func TestCacheComplexitySynthetic(t *testing.T) {
	meta := rtrace.Meta{Policy: "DFDeques", Workers: 2, K: 0}
	evs := []rtrace.Event{
		ev(1, 0, rtrace.EvFork, 1, 2, 0),
		ev(2, 1, rtrace.EvDispatch, 2, rtrace.SrcAcquire, 0),
		ev(3, 1, rtrace.EvSteal, 2, 1, 2),
		ev(4, 1, rtrace.EvTouch, 2, 1, 128),
		ev(5, 0, rtrace.EvTouch, 1, 1, 128),
		ev(6, 0, rtrace.EvDispatch, 2, rtrace.SrcNext, 0), // t2 migrates w1→w0
	}
	cs := rtrace.CacheComplexity(meta, evs, cache.Config{})
	if cs == nil {
		t.Fatal("CacheComplexity returned nil for a stream with touches")
	}
	if cs.Touches != 2 || cs.TouchedBytes != 256 {
		t.Fatalf("touches=%d bytes=%d, want 2/256", cs.Touches, cs.TouchedBytes)
	}
	if cs.SeqMisses != 2 {
		t.Fatalf("SeqMisses=%d, want 2 (block loaded once in 1DF order)", cs.SeqMisses)
	}
	if cs.ParMisses != 4 {
		t.Fatalf("ParMisses=%d, want 4 (each worker cold)", cs.ParMisses)
	}
	if cs.ExtraMisses != 2 {
		t.Fatalf("ExtraMisses=%d, want 2", cs.ExtraMisses)
	}
	if cs.Steals != 1 || cs.Migrations != 1 || cs.Deviations != 2 {
		t.Fatalf("deviations=%d (steals=%d queue=%d migrations=%d), want 2 (1 steal + 1 migration)",
			cs.Deviations, cs.Steals, cs.QueueTakes, cs.Migrations)
	}
	if len(cs.WorkerMisses) != 2 || cs.WorkerMisses[0] != 2 || cs.WorkerMisses[1] != 2 {
		t.Fatalf("WorkerMisses=%v, want [2 2]", cs.WorkerMisses)
	}
	if cs.ParMissRate <= cs.SeqMissRate {
		t.Fatalf("miss rates par=%v seq=%v, want par > seq", cs.ParMissRate, cs.SeqMissRate)
	}
}

// TestCacheComplexitySameWorker: when the consumer reuses the producer's
// worker, the parallel execution pays no extra misses over the baseline.
func TestCacheComplexitySameWorker(t *testing.T) {
	meta := rtrace.Meta{Policy: "DFDeques", Workers: 2, K: 0}
	evs := []rtrace.Event{
		ev(1, 0, rtrace.EvFork, 1, 2, 0),
		ev(2, 0, rtrace.EvTouch, 2, 7, 64),
		ev(3, 0, rtrace.EvTouch, 1, 7, 64),
	}
	cs := rtrace.CacheComplexity(meta, evs, cache.Config{})
	if cs.SeqMisses != 1 || cs.ParMisses != 1 || cs.ExtraMisses != 0 {
		t.Fatalf("seq=%d par=%d extra=%d, want 1/1/0", cs.SeqMisses, cs.ParMisses, cs.ExtraMisses)
	}
}

// TestCacheComplexityNoTouches: streams without EvTouch produce no report.
func TestCacheComplexityNoTouches(t *testing.T) {
	meta := rtrace.Meta{Policy: "DFDeques", Workers: 1}
	evs := []rtrace.Event{ev(1, 0, rtrace.EvFork, 1, 2, 0)}
	if cs := rtrace.CacheComplexity(meta, evs, cache.Config{}); cs != nil {
		t.Fatalf("expected nil report, got %+v", cs)
	}
	if s := rtrace.Summarize(meta, evs, 0); s.Cache != nil {
		t.Fatalf("Summarize attached a cache report to a touch-free stream")
	}
}

// TestCacheComplexity1DFOrder: the serial baseline must follow the
// depth-first order — a child's touches replay at its fork point, before
// the parent's subsequent touches — not the parallel stream order.
func TestCacheComplexity1DFOrder(t *testing.T) {
	// Tiny cache: capacity 2 lines, so order determines eviction.
	cfg := cache.Config{CapacityBytes: 128, LineBytes: 64}
	meta := rtrace.Meta{Policy: "DFDeques", Workers: 1, K: 0}
	// t1: touch A, fork t2 (touches B, C), touch A again.
	// 1DF: A, B, C, A → A evicted by C (LRU, cap 2) → 4 misses.
	// Stream order happens to be A, A, B, C (parent ran to completion
	// first) → parallel replay on one worker: A, A(hit), B, C → 3 misses.
	evs := []rtrace.Event{
		ev(1, 0, rtrace.EvTouch, 1, 10, 64), // A
		ev(2, 0, rtrace.EvFork, 1, 2, 0),
		ev(3, 0, rtrace.EvTouch, 1, 10, 64), // A again (parent continued)
		ev(4, 0, rtrace.EvTouch, 2, 11, 64), // B
		ev(5, 0, rtrace.EvTouch, 2, 12, 64), // C
	}
	cs := rtrace.CacheComplexity(meta, evs, cfg)
	if cs.SeqMisses != 4 {
		t.Fatalf("SeqMisses=%d, want 4 (1DF order A,B,C,A with capacity 2)", cs.SeqMisses)
	}
	if cs.ParMisses != 3 {
		t.Fatalf("ParMisses=%d, want 3 (stream order A,A,B,C)", cs.ParMisses)
	}
}

// TestCacheComplexityRealRun records a real traced run whose threads
// declare touches and checks the summary carries a coherent cache report
// and the stream still replay-verifies.
func TestCacheComplexityRealRun(t *testing.T) {
	body := func(root *grt.T) {
		var hs []*grt.T
		for i := 0; i < 16; i++ {
			blk := int32(100 + i%4) // 4 shared blocks
			hs = append(hs, root.Fork(func(c *grt.T) {
				c.Touch(blk, 4096)
				c.Alloc(64)
				c.Free(64)
			}))
		}
		for i := len(hs) - 1; i >= 0; i-- {
			root.Join(hs[i])
		}
	}
	for _, sched := range []grt.Kind{grt.DFDeques, grt.WS} {
		rec := record(t, grt.Config{Workers: 4, Sched: sched, K: 1 << 20, Seed: 7}, body)
		if _, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped()); err != nil {
			t.Fatalf("%v: verify failed on a stream with touches: %v", sched, err)
		}
		s := rtrace.Summarize(rec.Meta(), rec.Events(), rec.Dropped())
		if s.Cache == nil {
			t.Fatalf("%v: no cache report in summary", sched)
		}
		if s.Cache.Touches != 16 {
			t.Fatalf("%v: touches=%d, want 16", sched, s.Cache.Touches)
		}
		if s.Cache.ParMisses < s.Cache.SeqMisses {
			// With caches far larger than the footprint, parallel misses
			// can only exceed the sequential baseline (cold caches per
			// worker), never undercut it.
			t.Fatalf("%v: par=%d < seq=%d with an oversized cache",
				sched, s.Cache.ParMisses, s.Cache.SeqMisses)
		}
		if s.Cache.SeqMisses != 4*64 { // 4 blocks × 4096 B / 64 B lines
			t.Fatalf("%v: seq=%d, want 256", sched, s.Cache.SeqMisses)
		}
	}
}
