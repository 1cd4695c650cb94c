package lab

import (
	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
	"dfdeques/internal/stats"
	"dfdeques/internal/workload"
)

// Fig01Summary reproduces Figure 1: for each benchmark at fine thread
// granularity, the maximum number of simultaneously active threads, the
// cache miss rate (%), and the 8-processor speedup, under FIFO, ADF and
// DFD.
func Fig01Summary(o Options) *stats.Table {
	t := stats.NewTable(
		"Figure 1: summary at fine granularity (max threads | miss rate % | speedup)",
		"Benchmark",
		"Thr FIFO", "Thr ADF", "Thr DFD",
		"Miss FIFO", "Miss ADF", "Miss DFD",
		"Spd FIFO", "Spd ADF", "Spd DFD",
	)
	grain := workload.Fine
	if o.Quick {
		grain = workload.Medium
	}
	scheds := []string{"FIFO", "ADF", "DFD"}
	for _, w := range o.benches() {
		spec := w.Build(grain)
		var thr, miss, spd []string
		for _, s := range scheds {
			met := run(spec, s, o.K, machine.Realism(o.Procs, o.Seed))
			thr = append(thr, stats.I(met.MaxLiveThreads))
			miss = append(miss, stats.F(met.MissRate(), 1))
			spd = append(spd, stats.F(speedup(spec, s, o.K, o.Procs, o.Seed, false), 2))
		}
		t.Add(append(append(append([]string{w.Name}, thr...), miss...), spd...)...)
	}
	return t
}

// Fig11ThreadCounts reproduces Figure 11: total threads expressed in each
// program and the maximum simultaneously active threads per scheduler, at
// both granularities.
func Fig11ThreadCounts(o Options) *stats.Table {
	t := stats.NewTable(
		"Figure 11: thread counts (K = 50,000 bytes)",
		"Benchmark", "Grain", "Total", "FIFO", "ADF", "DFD", "DFD-inf",
	)
	for _, w := range o.benches() {
		for _, g := range o.grains() {
			spec := w.Build(g)
			total := dag.Measure(spec).TotalThreads // the program's threads
			row := []string{w.Name, g.String(), stats.I(total)}
			for _, s := range []string{"FIFO", "ADF", "DFD", "DFD-inf"} {
				met := run(spec, s, o.K, machine.Realism(o.Procs, o.Seed))
				row = append(row, stats.I(met.MaxLiveThreads))
			}
			t.Add(row...)
		}
	}
	return t
}

// Fig12Speedups reproduces Figure 12: 8-processor speedups at medium and
// fine granularities under FIFO, ADF and DFD.
func Fig12Speedups(o Options) *stats.Table {
	t := stats.NewTable(
		"Figure 12: 8-processor speedups",
		"Benchmark", "Grain", "FIFO", "ADF", "DFD",
	)
	for _, w := range o.benches() {
		for _, g := range o.grains() {
			spec := w.Build(g)
			row := []string{w.Name, g.String()}
			for _, s := range []string{"FIFO", "ADF", "DFD"} {
				row = append(row, stats.F(speedup(spec, s, o.K, o.Procs, o.Seed, false), 2))
			}
			t.Add(row...)
		}
	}
	return t
}

// Fig13MemVsProcs reproduces Figure 13: dense matrix multiply memory
// high-water mark (MB) as the processor count grows, for ADF, DFD and
// Cilk-style work stealing.
func Fig13MemVsProcs(o Options) *stats.Table {
	t := stats.NewTable(
		"Figure 13: dense MM memory (MB) vs processors",
		"Procs", "ADF", "DFD", "Cilk(WS)",
	)
	grain := workload.Fine
	procs := []int{1, 2, 4, 8}
	if o.Quick {
		grain = workload.Medium
		procs = []int{1, 4}
	}
	spec := workload.DenseMM(grain)
	for _, p := range procs {
		row := []string{stats.I(p)}
		for _, s := range []string{"ADF", "DFD", "Cilk"} {
			met := run(spec, s, o.K, machine.Realism(p, o.Seed))
			row = append(row, stats.MB(met.HeapHW))
		}
		t.Add(row...)
	}
	return t
}

// Fig14HeapHW reproduces Figure 14: heap high-water mark (MB) on 8
// processors for the three allocation-heavy benchmarks, under FIFO, ADF,
// DFD and DFD-inf (the work-stealing approximation), at both
// granularities.
func Fig14HeapHW(o Options) *stats.Table {
	t := stats.NewTable(
		"Figure 14: heap high-water mark (MB), 8 processors",
		"Benchmark", "Grain", "FIFO", "ADF", "DFD", "DFD-inf",
	)
	for _, w := range workload.All() {
		if !w.HeapHeavy {
			continue
		}
		if o.Quick && w.Name != "Dense MM" {
			continue
		}
		for _, g := range o.grains() {
			spec := w.Build(g)
			row := []string{w.Name, g.String()}
			for _, s := range []string{"FIFO", "ADF", "DFD", "DFD-inf"} {
				met := run(spec, s, o.K, machine.Realism(o.Procs, o.Seed))
				row = append(row, stats.MB(met.HeapHW))
			}
			t.Add(row...)
		}
	}
	return t
}

// Fig15KTradeoff reproduces Figure 15: dense MM at fine granularity as the
// memory threshold K sweeps from 100 B to 1 MB — running time, memory
// allocation, and scheduling granularity (the §5.3 ratio of own-deque
// schedules to steals).
func Fig15KTradeoff(o Options) *stats.Table {
	t := stats.NewTable(
		"Figure 15: dense MM trade-off vs memory threshold K",
		"K (bytes)", "Time (steps)", "Memory (MB)", "Sched granularity",
	)
	grain := workload.Fine
	ks := []int64{100, 1_000, 10_000, 50_000, 100_000, 1_000_000}
	if o.Quick {
		grain = workload.Medium
		ks = []int64{1_000, 100_000}
	}
	spec := workload.DenseMM(grain)
	for _, k := range ks {
		met := run(spec, "DFD", k, machine.Realism(o.Procs, o.Seed))
		gran := float64(met.LocalDispatches)
		if met.Steals > 0 {
			gran /= float64(met.Steals)
		}
		t.Add(stats.I(k), stats.I(met.Steps), stats.MB(met.HeapHW), stats.F(gran, 2))
	}
	return t
}

// Fig16Synthetic reproduces Figure 16: the §6 simulation — a synthetic
// divide-and-conquer benchmark with 15 levels of recursion on 64
// processors, geometrically decreasing space and granularity. It reports
// scheduling granularity (as % of total work) and memory (KB) for WS, ADF
// and DFD as the memory threshold varies. Pure §4.1 cost model, as in the
// paper's simulator.
func Fig16Synthetic(o Options) *stats.Table {
	t := stats.NewTable(
		"Figure 16: synthetic d&c on 64 processors vs memory threshold K",
		"K (KB)", "Gran% WS", "Gran% ADF", "Gran% DFD", "Mem WS (KB)", "Mem ADF (KB)", "Mem DFD (KB)",
	)
	cfg := workload.DefaultSynthetic()
	procs := 64
	ks := []int64{1 << 10, 4 << 10, 16 << 10, 40 << 10, 80 << 10, 160 << 10}
	if o.Quick {
		cfg.Levels = 11
		procs = 16
		ks = []int64{4 << 10, 40 << 10}
	}
	spec := workload.Synthetic(cfg)
	w := float64(dag.Measure(spec).W)
	for _, k := range ks {
		ws := run(spec, "WS", 0, pure(procs, o.Seed))
		adf := run(spec, "ADF", k, pure(procs, o.Seed))
		dfd := run(spec, "DFD", k, pure(procs, o.Seed))
		t.Add(
			stats.KB(k),
			stats.F(100*ws.SchedGranularity()/w, 4),
			stats.F(100*adf.SchedGranularity()/w, 4),
			stats.F(100*dfd.SchedGranularity()/w, 4),
			stats.KB(ws.HeapHW), stats.KB(adf.HeapHW), stats.KB(dfd.HeapHW),
		)
	}
	return t
}

// Fig17TreeBuildLocks reproduces Figure 17: speedups of the lock-heavy
// Barnes-Hut tree-building phase. The Pthreads-based schedulers (FIFO,
// ADF, DFD) use blocking locks; Cilk (WS) spin-waits.
func Fig17TreeBuildLocks(o Options) *stats.Table {
	t := stats.NewTable(
		"Figure 17: Barnes-Hut tree-build speedups (blocking vs spinning locks)",
		"Grain", "FIFO", "ADF", "DFD", "Cilk(spin)",
	)
	for _, g := range o.grains() {
		spec := workload.BarnesHutTreeBuild(g)
		row := []string{g.String()}
		for _, s := range []string{"FIFO", "ADF", "DFD"} {
			row = append(row, stats.F(speedup(spec, s, o.K, o.Procs, o.Seed, false), 2))
		}
		row = append(row, stats.F(speedup(spec, "Cilk", 0, o.Procs, o.Seed, true), 2))
		t.Add(row...)
	}
	return t
}

// Thm45LowerBound checks the Theorem 4.5 dag family: measured space for
// DFDeques(K) and DFDeques(∞) against S1 and the Ω(S1 + min(K,S1)·p·D)
// lower bound's growth with p.
func Thm45LowerBound(o Options) *stats.Table {
	t := stats.NewTable(
		"Theorem 4.5: lower-bound dag — space grows as Ω(min(K,S1)·p·D)",
		"Procs", "S1 (KB)", "DFD(K) (KB)", "DFD-inf (KB)", "ADF(K) (KB)", "DFD / (A·p·D)",
	)
	const d = 60
	a := min64(o.K, 100_000) // the adversarial A = min(K, S1)
	procs := []int{2, 4, 8, 16}
	if o.Quick {
		procs = []int{2, 8}
	}
	for _, p := range procs {
		cfg := workload.LowerBoundConfig{P: p, D: d, A: a}
		spec := workload.LowerBound(cfg)
		sm := dag.Measure(spec)
		dfd := run(spec, "DFD", a, pure(p, o.Seed))
		inf := run(spec, "DFD-inf", 0, pure(p, o.Seed))
		adf := run(spec, "ADF", a, pure(p, o.Seed))
		ratio := float64(dfd.HeapHW) / float64(a*int64(p)*int64(d))
		t.Add(stats.I(p), stats.KB(sm.HeapHW), stats.KB(dfd.HeapHW),
			stats.KB(inf.HeapHW), stats.KB(adf.HeapHW), stats.F(ratio, 3))
	}
	return t
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Experiments maps experiment ids to drivers, for cmd/dfdlab.
func Experiments() map[string]func(Options) *stats.Table {
	return map[string]func(Options) *stats.Table{
		"fig1":      Fig01Summary,
		"fig11":     Fig11ThreadCounts,
		"fig12":     Fig12Speedups,
		"fig13":     Fig13MemVsProcs,
		"fig14":     Fig14HeapHW,
		"fig15":     Fig15KTradeoff,
		"fig16":     Fig16Synthetic,
		"fig17":     Fig17TreeBuildLocks,
		"thm45":     Thm45LowerBound,
		"ablation":  Ablations,
		"adaptive":  AdaptiveK,
		"xcheck":    CrossCheck,
		"profile":   SpaceProfile,
		"scenarios": ScenarioCache,
	}
}

// Order is the canonical experiment ordering for "run everything".
func Order() []string {
	return []string{
		"fig1", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "thm45", "ablation", "adaptive", "xcheck",
		"profile", "scenarios",
	}
}
