package dfdeques_test

// One benchmark per table/figure of the paper's evaluation. Each bench
// regenerates its experiment through the same driver cmd/dfdlab uses
// (internal/lab), in reduced "quick" form so `go test -bench=.` stays
// tractable; run `go run ./cmd/dfdlab` for the full-size tables recorded
// in EXPERIMENTS.md. The reported ns/op is the cost of regenerating the
// experiment.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"dfdeques"
	"dfdeques/internal/lab"
	"dfdeques/internal/rtrace"
	"dfdeques/internal/workload"
)

func quickOpts() lab.Options {
	o := lab.DefaultOptions()
	o.Quick = true
	return o
}

// BenchmarkFig01_SummaryTable regenerates the Figure 1 summary table (max
// threads, cache miss rate, 8-processor speedup for each benchmark ×
// scheduler).
func BenchmarkFig01_SummaryTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.Fig01Summary(quickOpts())
	}
}

// BenchmarkFig11_ThreadCounts regenerates the Figure 11 thread-count
// table (total and maximum simultaneously live threads per scheduler).
func BenchmarkFig11_ThreadCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.Fig11ThreadCounts(quickOpts())
	}
}

// BenchmarkFig12_Speedups regenerates the Figure 12 speedup comparison at
// medium and fine thread granularity.
func BenchmarkFig12_Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.Fig12Speedups(quickOpts())
	}
}

// BenchmarkFig13_MemVsProcs regenerates Figure 13: dense-MM memory vs
// processor count for ADF, DFD and work stealing.
func BenchmarkFig13_MemVsProcs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.Fig13MemVsProcs(quickOpts())
	}
}

// BenchmarkFig14_HeapHighWater regenerates Figure 14: heap high-water
// marks of the allocation-heavy benchmarks.
func BenchmarkFig14_HeapHighWater(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.Fig14HeapHW(quickOpts())
	}
}

// BenchmarkFig15_KTradeoff regenerates Figure 15: the time / memory /
// scheduling-granularity trade-off as the memory threshold K sweeps.
func BenchmarkFig15_KTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.Fig15KTradeoff(quickOpts())
	}
}

// BenchmarkFig16_Synthetic64 regenerates Figure 16: the §6 synthetic
// divide-and-conquer simulation comparing WS, ADF and DFD granularity and
// memory across K.
func BenchmarkFig16_Synthetic64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.Fig16Synthetic(quickOpts())
	}
}

// BenchmarkFig17_TreeBuildLocks regenerates Figure 17: the lock-heavy
// Barnes-Hut tree-build phase under blocking vs spinning locks.
func BenchmarkFig17_TreeBuildLocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.Fig17TreeBuildLocks(quickOpts())
	}
}

// BenchmarkThm45_LowerBound regenerates the Theorem 4.5 lower-bound-dag
// space-growth check.
func BenchmarkThm45_LowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.Thm45LowerBound(quickOpts())
	}
}

// BenchmarkExt_Ablations regenerates the design-choice ablation table
// (steal-from-bottom and leftmost-p window isolation).
func BenchmarkExt_Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.Ablations(quickOpts())
	}
}

// BenchmarkExt_AdaptiveK regenerates the §7 adaptive-memory-threshold
// experiment.
func BenchmarkExt_AdaptiveK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.AdaptiveK(quickOpts())
	}
}

// BenchmarkExt_Clustered regenerates the §7 multi-level (cluster of SMPs)
// scheduling experiment.
func BenchmarkExt_Clustered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.Clustered(quickOpts())
	}
}

// BenchmarkExt_CrossCheck regenerates the simulator-vs-real-runtime
// agreement table.
func BenchmarkExt_CrossCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.CrossCheck(quickOpts())
	}
}

// BenchmarkExt_SpaceProfile regenerates the space-over-time profiles.
func BenchmarkExt_SpaceProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab.SpaceProfile(quickOpts())
	}
}

// ---- Engine micro-benchmarks --------------------------------------------

// BenchmarkSimulatorThroughput measures raw simulator speed
// (actions/second ≈ W / (ns/op · 1e-9)) on a pure-model DFDeques run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec := workload.DenseMM(workload.Medium)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met, err := dfdeques.Simulate(spec, dfdeques.SimConfig{
			Procs: 8, Scheduler: "DFD", K: 3000, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(met.Actions), "actions/op")
	}
}

// BenchmarkSimulatorPerScheduler compares simulation cost across the four
// schedulers on the same workload.
func BenchmarkSimulatorPerScheduler(b *testing.B) {
	spec := workload.SparseMVM(workload.Medium)
	for _, s := range []string{"DFD", "WS", "ADF", "FIFO"} {
		b.Run(s, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dfdeques.Simulate(spec, dfdeques.SimConfig{
					Procs: 8, Scheduler: s, K: 3000, Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGrtContention compares the runtime's two synchronization
// engines (fine-grained default vs CoarseLock) across worker counts on a
// steal-heavy workload: a long chain of fork-joins of trivial children
// with a quota-stressed alloc/free pattern, so deques stay near-empty and
// nearly every dispatch goes through the shared structures. lockops/op is
// the number of exclusive serializing-lock acquisitions per run — the
// direct measure of how much scheduling the engine serializes.
func BenchmarkGrtContention(b *testing.B) {
	const links = 256
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mode := range []struct {
			name   string
			coarse bool
		}{{"fine", false}, {"coarse", true}} {
			b.Run(fmt.Sprintf("p%d/%s", workers, mode.name), func(b *testing.B) {
				var lockOps, steals int64
				for i := 0; i < b.N; i++ {
					st, err := dfdeques.Run(dfdeques.RuntimeConfig{
						Workers: workers, Sched: dfdeques.SchedDFDeques, K: 128,
						Seed: int64(i), CoarseLock: mode.coarse,
					}, func(r *dfdeques.Thread) {
						for j := 0; j < links; j++ {
							h := r.Fork(func(c *dfdeques.Thread) {
								c.Alloc(96)
								c.Free(96)
							})
							r.Alloc(96)
							r.Free(96)
							r.Join(h)
						}
					})
					if err != nil {
						b.Fatal(err)
					}
					lockOps += st.SchedLockOps
					steals += st.Steals
				}
				b.ReportMetric(float64(lockOps)/float64(b.N), "lockops/op")
				b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
			})
		}
	}
}

// BenchmarkGrtSpeedup runs one fixed CPU-bound fork-join workload — a
// binary tree of depth 6 whose 64 leaves each burn a fixed arithmetic
// spin — across worker counts and the three depth-first schedulers, so
// the recorded perf trajectory (BENCH_*.json) captures parallel
// efficiency (ns/op falling, or at least flat, as p grows) rather than
// only per-op scheduling latency. The leaf spin feeds a package-level
// sink so the compiler cannot elide the work.
var speedupSink atomic.Int64

func BenchmarkGrtSpeedup(b *testing.B) {
	const (
		depth     = 6    // 2^6 = 64 leaves
		leafIters = 4000 // ~tens of µs of integer mixing per leaf
	)
	leafWork := func(seed int64) int64 {
		x := uint64(seed)*0x9E3779B97F4A7C15 + 1
		for i := 0; i < leafIters; i++ {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			x *= 0x2545F4914F6CDD1D
		}
		return int64(x)
	}
	var rec func(t *dfdeques.Thread, d int, seed int64)
	rec = func(t *dfdeques.Thread, d int, seed int64) {
		if d == 0 {
			speedupSink.Add(leafWork(seed))
			return
		}
		h := t.Fork(func(c *dfdeques.Thread) { rec(c, d-1, 2*seed) })
		rec(t, d-1, 2*seed+1)
		t.Join(h)
	}
	for _, k := range []dfdeques.SchedKind{dfdeques.SchedDFDeques, dfdeques.SchedWS, dfdeques.SchedADF} {
		for _, workers := range []int{1, 2, 4, 8} {
			var kbytes int64 = 1 << 20
			if k == dfdeques.SchedWS {
				kbytes = 0 // WS is DFDeques(∞): no memory threshold
			}
			// The continuation engine keeps the historical benchmark name
			// (it is the default engine, so old snapshots compare against
			// it directly); the legacy channel-frame engine rides along
			// under a /channel suffix for the engine-vs-engine delta.
			for _, eng := range []struct {
				suffix  string
				channel bool
			}{{"", false}, {"/channel", true}} {
				b.Run(fmt.Sprintf("%s/p%d%s", k, workers, eng.suffix), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := dfdeques.Run(dfdeques.RuntimeConfig{
							Workers: workers, Sched: k, K: kbytes, Seed: int64(i),
						}, func(r *dfdeques.Thread) {
							rec(r, depth, 1)
						}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkGrtForkJoinCost measures the bare cost of one fork+join pair
// with nothing else in the system: a warm persistent runtime, one job per
// measurement, and a root thread running b.N fork+joins of an empty
// child. This is the work-first tentpole number — on the continuation
// engine an unstolen fork+join is an inline call (deque push, conditional
// pop, direct body call: no goroutine, no channel, no allocation), while
// the channel-frame engine pays a goroutine spawn and two channel
// round-trips per pair. At p>1 the same loop runs under live thieves, so
// the cost includes the promote-on-steal protocol's occasional hits.
func BenchmarkGrtForkJoinCost(b *testing.B) {
	for _, k := range []dfdeques.SchedKind{dfdeques.SchedDFDeques, dfdeques.SchedWS, dfdeques.SchedADF} {
		for _, workers := range []int{1, 2, 4, 8} {
			var kbytes int64 = 1 << 20
			if k == dfdeques.SchedWS {
				kbytes = 0
			}
			for _, eng := range []struct {
				suffix  string
				channel bool
			}{{"", false}, {"/channel", true}} {
				b.Run(fmt.Sprintf("%s/p%d%s", k, workers, eng.suffix), func(b *testing.B) {
					rt, err := dfdeques.NewRuntime(dfdeques.RuntimeConfig{
						Workers: workers, Sched: k, K: kbytes, Seed: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					defer rt.Shutdown(context.Background())
					b.ReportAllocs()
					b.ResetTimer()
					j, err := rt.Submit(context.Background(), func(t *dfdeques.Thread) {
						for i := 0; i < b.N; i++ {
							h := t.Fork(func(*dfdeques.Thread) {})
							t.Join(h)
						}
					})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := j.Wait(); err != nil {
						b.Fatal(err)
					}
				})
			}
		}
	}
}

// BenchmarkGrtTrace measures the rtrace recording overhead on the
// contention workload: the same run with no probe ("off") and with a live
// recorder ("on"). Building with -tags grtnotrace turns the no-probe
// variant into "compiledout" — every hook site folded away by the
// constant — which scripts/bench.sh captures in a second pass.
func BenchmarkGrtTrace(b *testing.B) {
	const links, workers = 256, 4
	body := func(r *dfdeques.Thread) {
		for j := 0; j < links; j++ {
			h := r.Fork(func(c *dfdeques.Thread) {
				c.Alloc(96)
				c.Free(96)
			})
			r.Alloc(96)
			r.Free(96)
			r.Join(h)
		}
	}
	run := func(b *testing.B, probe rtrace.Probe) {
		for i := 0; i < b.N; i++ {
			if _, err := dfdeques.Run(dfdeques.RuntimeConfig{
				Workers: workers, Sched: dfdeques.SchedDFDeques, K: 128,
				Seed: int64(i), Probe: probe,
			}, body); err != nil {
				b.Fatal(err)
			}
		}
	}
	off := "off"
	if !rtrace.Enabled {
		off = "compiledout"
	}
	b.Run(fmt.Sprintf("p%d/%s", workers, off), func(b *testing.B) { run(b, nil) })
	if rtrace.Enabled {
		// One recorder reused across iterations: rings wrap, but the
		// per-event cost being measured is identical.
		rec := rtrace.NewRecorder(workers, 1<<14)
		b.Run(fmt.Sprintf("p%d/on", workers), func(b *testing.B) { run(b, rec) })
	}
}

// BenchmarkRuntimeForkJoin measures the real runtime's fork-join overhead
// (threads/op reported) under each scheduler.
func BenchmarkRuntimeForkJoin(b *testing.B) {
	for _, k := range []dfdeques.SchedKind{dfdeques.SchedDFDeques, dfdeques.SchedWS, dfdeques.SchedADF, dfdeques.SchedFIFO} {
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := dfdeques.Run(dfdeques.RuntimeConfig{Workers: 4, Sched: k, Seed: int64(i)},
					func(t *dfdeques.Thread) {
						var rec func(t *dfdeques.Thread, n int)
						rec = func(t *dfdeques.Thread, n int) {
							if n == 0 {
								return
							}
							h := t.Fork(func(c *dfdeques.Thread) { rec(c, n-1) })
							rec(t, n-1)
							t.Join(h)
						}
						rec(t, 7)
					})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.TotalThreads), "threads/op")
			}
		})
	}
}

// BenchmarkGrtSubmit measures the runtime lifecycle split the persistent
// API exists for: "cold" pays New + Submit + Wait + Shutdown per job (the
// one-shot Run), "warm" submits every job to one long-lived runtime so
// worker start-up amortizes away. The same fork-join tree runs either way.
func BenchmarkGrtSubmit(b *testing.B) {
	const workers = 4
	body := func(t *dfdeques.Thread) {
		var rec func(t *dfdeques.Thread, n int)
		rec = func(t *dfdeques.Thread, n int) {
			if n == 0 {
				return
			}
			h := t.Fork(func(c *dfdeques.Thread) { rec(c, n-1) })
			rec(t, n-1)
			t.Join(h)
		}
		rec(t, 6)
	}
	cfg := dfdeques.RuntimeConfig{Workers: workers, Sched: dfdeques.SchedDFDeques, K: 4096, Seed: 1}

	b.Run(fmt.Sprintf("p%d/cold", workers), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dfdeques.Run(cfg, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("p%d/warm", workers), func(b *testing.B) {
		rt, err := dfdeques.NewRuntime(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer rt.Shutdown(context.Background())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j, err := rt.Submit(context.Background(), body)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := j.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
