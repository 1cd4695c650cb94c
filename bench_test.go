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
	"testing"

	"dfdeques"
	"dfdeques/internal/lab"
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
