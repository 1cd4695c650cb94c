package lab

import (
	"dfdeques/internal/dag"
	"dfdeques/internal/grt"
	"dfdeques/internal/machine"
	"dfdeques/internal/stats"
	"dfdeques/internal/workload"
)

// Ablations isolates the two design choices §1/§3.3 credit for DFDeques'
// behaviour:
//
//   - steal from the deque *bottom* (the coarsest thread): flipping to
//     top-stealing collapses the scheduling granularity (shown on the §6
//     synthetic d&c benchmark, whose deques run deep);
//   - sample victims among the *leftmost p* deques: widening to the whole
//     list R admits lower-priority (more premature) threads and raises
//     the space requirement (shown on dense MM, whose temporaries make
//     premature execution expensive).
func Ablations(o Options) *stats.Table {
	t := stats.NewTable(
		"Ablations: DFDeques design choices",
		"Workload", "Variant", "Time", "Space (KB)", "Steals", "Granularity",
	)
	synCfg := workload.DefaultSynthetic()
	synProcs := 16
	mmGrain := workload.Fine
	seeds := int64(5)
	if o.Quick {
		synCfg.Levels = 11
		synProcs = 8
		mmGrain = workload.Medium
		seeds = 2
	}
	cases := []struct {
		name  string
		spec  *dag.ThreadSpec
		procs int
		k     int64
	}{
		{"synthetic d&c", workload.Synthetic(synCfg), synProcs, 40 << 10},
		{"dense MM", workload.DenseMM(mmGrain), o.Procs, o.K},
	}
	variants := []struct {
		name    string
		top     bool
		fullWin bool
	}{
		{"steal bottom, leftmost-p (paper)", false, false},
		{"steal top (ablation)", true, false},
		{"full-window victims (ablation)", false, true},
		{"both ablations", true, true},
	}
	for _, c := range cases {
		for _, v := range variants {
			var steps, space, steals int64
			var gran float64
			for seed := int64(0); seed < seeds; seed++ {
				cfg := withSched(pure(c.procs, o.Seed+seed), "DFD", c.k)
				cfg.StealFromTop, cfg.FullWindow = v.top, v.fullWin
				met, err := machine.New(cfg).Run(c.spec)
				if err != nil {
					panic("lab: ablation: " + err.Error())
				}
				steps += met.Steps
				space += met.HeapHW
				steals += met.Steals
				gran += met.SchedGranularity()
			}
			t.Add(c.name, v.name,
				stats.I(steps/seeds),
				stats.KB(space/seeds),
				stats.I(steals/seeds),
				stats.F(gran/float64(seeds), 1),
			)
		}
	}
	return t
}

// SpaceProfile renders live-space-over-time curves (thesis-style space
// profiles) for the four schedulers on the temporary-heavy dense MM dag:
// the depth-first schedulers hold a low plateau near S1, work stealing
// rides p× higher, FIFO balloons with its breadth-first thread
// population.
func SpaceProfile(o Options) *stats.Table {
	t := stats.NewTable(
		"Space over time: dense MM fine, 8 procs (each spark scaled to its own peak)",
		"Sched", "Peak (KB)", "Profile",
	)
	grain := workload.Fine
	if o.Quick {
		grain = workload.Medium
	}
	spec := workload.DenseMM(grain)
	for _, name := range []string{"ADF", "DFD", "WS", "FIFO"} {
		cfg := pure(o.Procs, o.Seed)
		cfg.SampleEvery = 64
		cfg.StackBytes = 8192 // count thread stacks so FIFO's population shows
		m := machine.New(withSched(cfg, name, o.K))
		met, err := m.Run(spec)
		if err != nil {
			panic("lab: profile: " + err.Error())
		}
		t.Add(name, stats.KB(met.SpaceHW), stats.Spark(m.SpaceProfile(), 64))
	}
	return t
}

// CrossCheck runs the same benchmark dags on both engines — the machine
// simulator and the real goroutine runtime — under DFDeques(K) and
// tabulates the invariant quantities that must agree (thread population)
// or bracket each other (heap high-water between S1 and total allocation).
// This is the evidence that the simulator's scheduler and the concurrent
// implementation are the same algorithm.
func CrossCheck(o Options) *stats.Table {
	t := stats.NewTable(
		"Cross-engine check: simulator vs real runtime (DFDeques, medium grain)",
		"Benchmark", "Threads sim", "Threads grt", "Heap sim (KB)", "Heap grt (KB)", "S1 (KB)",
	)
	names := []string{"Dense MM", "Sparse MVM", "Decision Tr."}
	if !o.Quick {
		names = append(names, "Vol. Rend.", "FFTW", "FMM")
	}
	for _, name := range names {
		w, _ := workload.ByName(name)
		spec := w.Build(workload.Medium)
		sm := dag.Measure(spec)
		simMet, err := machine.New(withSched(pure(o.Procs, o.Seed), "DFD", o.K)).Run(spec)
		if err != nil {
			panic("lab: xcheck sim: " + err.Error())
		}
		st, err := grt.RunSpec(grt.Config{Workers: o.Procs, Sched: grt.DFDeques, K: o.K, Seed: o.Seed}, spec, 0)
		if err != nil {
			panic("lab: xcheck grt: " + err.Error())
		}
		t.Add(name,
			stats.I(simMet.TotalThreads-simMet.DummyThreads),
			stats.I(st.TotalThreads-st.DummyThreads),
			stats.KB(simMet.HeapHW), stats.KB(st.HeapHW), stats.KB(sm.HeapHW),
		)
	}
	return t
}

// AdaptiveK evaluates the §7 future-work idea of setting the memory
// threshold automatically: a damped controller that doubles or halves K to
// keep the live heap near a target. It compares fixed-K runs against the
// adaptive controller at two space targets. (The runtime dummy-thread
// transformation tracks the changing threshold, per §3.3's "this
// transformation takes place at runtime".)
func AdaptiveK(o Options) *stats.Table {
	t := stats.NewTable(
		"Adaptive memory threshold (§7 extension): dense MM, 8 procs",
		"Config", "Space (MB)", "Steals", "Granularity", "Time",
	)
	grain := workload.Fine
	if o.Quick {
		grain = workload.Medium
	}
	spec := workload.DenseMM(grain)

	runOne := func(name string, k, target int64) {
		cfg := withSched(pure(o.Procs, o.Seed), "DFD", k)
		cfg.AdaptiveTarget = target
		met, err := machine.New(cfg).Run(spec)
		if err != nil {
			panic("lab: adaptive: " + err.Error())
		}
		t.Add(name, stats.MB(met.HeapHW), stats.I(met.Steals),
			stats.F(met.SchedGranularity(), 1), stats.I(met.Steps))
	}

	for _, k := range []int64{500, 3000, 50_000} {
		runOne("fixed K="+stats.I(k), k, 0)
	}
	for _, target := range []int64{256 << 10, 384 << 10} {
		runOne("adaptive target="+stats.KB(target)+"KB", 1024, target)
	}
	return t
}
