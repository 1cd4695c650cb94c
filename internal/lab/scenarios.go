package lab

import (
	"context"

	"dfdeques/internal/grt"
	"dfdeques/internal/rtrace"
	"dfdeques/internal/stats"
	"dfdeques/internal/workload"
)

// ScenarioCache runs the irregular-workload scenarios — producer/consumer
// pipeline with backpressure, streaming windowed aggregation, random task
// graph — on the real runtime under every policy, and tabulates the
// parallel cache complexity from the recorded trace: misses of the
// per-worker cache replay against the 1DF single-cache baseline, and the
// deviation count (steals + queue dispatches + migrations) that drives
// them. This is the Fig. 1 locality story measured on workloads whose
// synchronization (futures, mutexes, many jobs) the benchmark dags cannot
// express.
func ScenarioCache(o Options) *stats.Table {
	t := stats.NewTable(
		"Irregular scenarios: parallel cache complexity (real runtime, 4 workers)",
		"Scenario", "Sched", "Threads", "Deviations", "Steals", "Par miss", "Seq miss", "Extra",
	)
	type pol struct {
		name string
		kind grt.Kind
		k    int64
	}
	pols := []pol{
		{"DFD", grt.DFDeques, o.K},
		{"DFD-inf", grt.DFDeques, 0},
		{"WS", grt.WS, 0},
		{"ADF", grt.ADF, o.K},
		{"FIFO", grt.FIFO, 0},
	}
	const workers = 4
	scale := 2
	if o.Quick {
		scale = 1
	}
	scfg := workload.ScenarioConfig{Seed: o.Seed, Scale: scale}
	for _, sc := range workload.Scenarios() {
		want := sc.Expect(scfg)
		for _, p := range pols {
			rec := rtrace.NewRecorder(workers, 1<<17)
			rt, err := grt.New(grt.Config{
				Workers: workers, Sched: p.kind, K: p.k, Seed: o.Seed, Probe: rec,
			})
			if err != nil {
				panic("lab: scenarios: " + err.Error())
			}
			sum, err := sc.Run(context.Background(), rt, scfg)
			if err != nil {
				panic("lab: scenarios: " + sc.Name + "/" + p.name + ": " + err.Error())
			}
			if err := rt.Shutdown(context.Background()); err != nil {
				panic("lab: scenarios: shutdown: " + err.Error())
			}
			if sum != want {
				panic("lab: scenarios: " + sc.Name + "/" + p.name + ": checksum mismatch")
			}
			s := rtrace.Summarize(rec.Meta(), rec.Events(), rec.Dropped())
			if s.Cache == nil {
				panic("lab: scenarios: " + sc.Name + "/" + p.name + ": no cache report")
			}
			t.Add(sc.Name, p.name,
				stats.I(s.Threads),
				stats.I(s.Cache.Deviations),
				stats.I(s.Cache.Steals),
				stats.I(s.Cache.ParMisses),
				stats.I(s.Cache.SeqMisses),
				stats.I(s.Cache.ExtraMisses),
			)
		}
	}
	return t
}
