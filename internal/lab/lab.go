// Package lab contains one driver per table/figure of the paper's
// evaluation (Figs. 1, 11–17, and the Theorem 4.5 lower-bound check).
// Each driver runs the required simulations and renders a stats.Table
// shaped like the paper's. cmd/dfdlab and the repository's benchmarks are
// thin wrappers around these drivers.
package lab

import (
	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
	"dfdeques/internal/workload"
)

// Options controls experiment scale.
type Options struct {
	// Procs is the simulated machine size for the §5 experiments (the
	// paper's Enterprise 5000 has 8).
	Procs int
	// K is the memory threshold used for ADF and DFD in the comparison
	// tables (§5.2 uses 50,000 bytes).
	K int64
	// Seed drives all scheduling randomness.
	Seed int64
	// Quick reduces sweep sizes for unit tests.
	Quick bool
}

// DefaultOptions mirrors the paper's experimental setup. The paper uses
// K = 50,000 bytes (§5.2) for problem sizes ~16× ours; we scale the
// threshold by the same factor as the workloads so it bites at the same
// point of each computation.
func DefaultOptions() Options {
	return Options{Procs: 8, K: 3_000, Seed: 1}
}

// pure is the §4.1 cost model with no extensions, used for the §6
// simulator experiments and the theorem checks.
func pure(procs int, seed int64) machine.Config {
	return machine.Config{Procs: procs, Seed: seed}
}

// withSched returns cfg running the named scheduler (one of
// machine.Names) at threshold k; "Cilk", the paper's figure name for work
// stealing, is WS.
func withSched(cfg machine.Config, name string, k int64) machine.Config {
	if name == "Cilk" {
		name = "WS"
	}
	cfg.Scheduler, cfg.K = name, k
	return cfg
}

// run executes spec under the named scheduler and config.
func run(spec *dag.ThreadSpec, name string, k int64, cfg machine.Config) machine.Metrics {
	met, err := machine.New(withSched(cfg, name, k)).Run(spec)
	if err != nil {
		panic("lab: " + name + ": " + err.Error())
	}
	return met
}

// speedup returns T(1 processor)/T(procs) for the same scheduler and cost
// model, the paper's definition (§5.2: speedups are relative to the
// single-processor multithreaded execution).
func speedup(spec *dag.ThreadSpec, name string, k int64, procs int, seed int64, spin bool) float64 {
	c1 := machine.Realism(1, seed)
	cp := machine.Realism(procs, seed)
	c1.SpinLocks, cp.SpinLocks = spin, spin
	t1 := run(spec, name, k, c1).Steps
	tp := run(spec, name, k, cp).Steps
	return float64(t1) / float64(tp)
}

// grains returns the granularities a driver sweeps (Quick keeps medium
// only).
func (o Options) grains() []workload.Grain {
	if o.Quick {
		return []workload.Grain{workload.Medium}
	}
	return []workload.Grain{workload.Medium, workload.Fine}
}

// benches returns the benchmark set (Quick keeps a representative three).
func (o Options) benches() []workload.Workload {
	all := workload.All()
	if !o.Quick {
		return all
	}
	var out []workload.Workload
	for _, w := range all {
		switch w.Name {
		case "Dense MM", "Sparse MVM", "Decision Tr.":
			out = append(out, w)
		}
	}
	return out
}
