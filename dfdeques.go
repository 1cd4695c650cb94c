// Package dfdeques is a Go implementation of the DFDeques thread
// scheduler from Girija Narlikar, "Scheduling Threads for Low Space
// Requirement and Good Locality" (SPAA 1999), together with the baselines
// the paper compares against and the machinery to reproduce its
// evaluation.
//
// The package offers two ways to run nested-parallel (fork-join)
// computations:
//
//   - Run executes real Go code on a user-level thread runtime with a
//     pluggable scheduler (DFDeques(K), the depth-first ADF(K), or the
//     FIFO scheduler of classic Pthreads libraries). This is the paper's
//     modified Pthreads library, §5. For long-lived services, NewRuntime
//     starts the worker pool once and Submit runs any number of jobs on
//     it — each with its own stats, panic isolation, and context
//     cancellation — until Shutdown drains and joins everything.
//
//   - Simulate executes a declarative Program on a deterministic
//     p-processor machine simulator under the paper's §4.1 cost model
//     (optionally extended with caches, contention, and thread-stack
//     costs), measuring time, space, steals, scheduling granularity, and
//     cache behaviour. This is how the paper's tables and figures are
//     regenerated; see cmd/dfdlab.
//
// # Quick start (real execution)
//
//	stats, err := dfdeques.Run(dfdeques.RuntimeConfig{
//	    Workers: 8,
//	    Sched:   dfdeques.SchedDFDeques,
//	    K:       50_000,
//	}, func(t *dfdeques.Thread) {
//	    h := t.Fork(func(c *dfdeques.Thread) { /* child */ })
//	    /* parent */
//	    t.Join(h)
//	})
//
// # Quick start (simulation)
//
//	prog := dfdeques.NewProgram("demo").Work(100).Spec()
//	met, err := dfdeques.Simulate(prog, dfdeques.SimConfig{
//	    Procs: 8, Scheduler: "DFD", K: 50_000,
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every reproduced table and figure.
package dfdeques

import (
	"dfdeques/internal/cache"
	"dfdeques/internal/dag"
	"dfdeques/internal/grt"
	"dfdeques/internal/machine"
	"dfdeques/internal/rtrace"
)

// ---- Real execution (the user-level thread runtime) ---------------------

// Thread is a handle on a running user-level thread; thread bodies receive
// one and use it to Fork, Join, Alloc, Free, and lock Mutexes.
type Thread = grt.T

// Mutex is a scheduler-mediated blocking lock (see Fig. 17).
type Mutex = grt.Mutex

// Future is a scheduler-mediated write-once synchronization variable
// (Multilisp-style futures; the extension of [4] referenced in §1).
type Future = grt.Future

// RunStats reports what a real execution did.
type RunStats = grt.Stats

// SchedKind selects the runtime's scheduling algorithm.
type SchedKind = grt.Kind

// Scheduler kinds for RuntimeConfig.
const (
	SchedDFDeques = grt.DFDeques
	SchedADF      = grt.ADF
	SchedFIFO     = grt.FIFO
	SchedWS       = grt.WS
)

// RuntimeConfig, Run, RunProgram and the persistent Runtime/Job lifecycle
// live in runtime.go; the tracing surface (NewTraceRecorder, ExportTrace,
// VerifyTrace) in trace.go.

// ---- Simulation ----------------------------------------------------------

// Program is a declarative nested-parallel computation: a tree of threads
// with work, allocation, fork/join and lock instructions.
type Program = dag.ThreadSpec

// ProgramBuilder builds one thread of a Program.
type ProgramBuilder = dag.B

// NewProgram starts building a Program's thread.
func NewProgram(label string) *ProgramBuilder { return dag.NewThread(label) }

// ParFor builds a balanced binary fork tree over n leaf threads.
func ParFor(label string, n int, leaf func(i int) *Program) *Program {
	return dag.ParFor(label, n, leaf)
}

// Par2 runs two programs in parallel under a fresh parent thread.
func Par2(label string, left, right *Program) *Program { return dag.Par2(label, left, right) }

// ProgramMetrics are a Program's intrinsic measures: work W, depth D,
// serial space S1, thread counts.
type ProgramMetrics = dag.SerialMetrics

// MeasureProgram computes the serial (1DF) metrics of a program.
func MeasureProgram(p *Program) ProgramMetrics { return dag.Measure(p) }

// SimMetrics are the results of a simulated execution.
type SimMetrics = machine.Metrics

// CacheConfig configures the simulated per-processor data cache.
type CacheConfig = cache.Config

// SimConfig configures a simulation.
type SimConfig struct {
	// Procs is the simulated processor count (default 1).
	Procs int
	// Scheduler is one of "DFD", "DFD-inf", "WS", "ADF", "FIFO"
	// (default "DFD").
	Scheduler string
	// K is the memory threshold in bytes for DFD/ADF (0 = ∞).
	K int64
	// Seed drives scheduling randomness.
	Seed int64

	// Optional cost-model extensions (zero values give the paper's pure
	// §4.1 model): see the fields of the same names in machine.Config.
	MissPenalty  int64
	Cache        CacheConfig
	StackBytes   int64
	StealLatency int64
	QueueLatency int64
	SpinLocks    bool

	// CheckInvariants records the run's schedule and replay-verifies it
	// (Lemma 3.1, dispatch conservation, quota accounting; see
	// VerifyTrace); Simulate fails if the replay does. On a program that
	// takes locks the ordering checks stop at the first lock block. Slow.
	CheckInvariants bool

	// DFDeques variants (Scheduler "DFD", "DFD-inf" or "WS", which is
	// DFDeques(∞); Simulate refuses them for the other schedulers):

	// AdaptiveTarget enables the adaptive memory-threshold controller
	// (§7 future work): K doubles/halves to keep the live heap near this
	// byte budget. It needs a finite starting K: Simulate refuses it when
	// the threshold is ∞ ("DFD-inf", "WS", or "DFD" with K = 0).
	AdaptiveTarget int64
	// StealFromTop and FullWindow are the design-choice ablations (see
	// EXPERIMENTS.md); production use wants both false.
	StealFromTop bool
	FullWindow   bool
}

// Simulate runs the program on the machine simulator and returns its
// metrics. It refuses an unknown scheduler and a DFDeques variant on a
// scheduler that has none (see machine.Config).
func Simulate(p *Program, cfg SimConfig) (SimMetrics, error) {
	if cfg.Procs == 0 {
		cfg.Procs = 1
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = "DFD"
	}
	m := machine.New(machine.Config{
		Procs:          cfg.Procs,
		Seed:           cfg.Seed,
		Scheduler:      cfg.Scheduler,
		K:              cfg.K,
		StealFromTop:   cfg.StealFromTop,
		FullWindow:     cfg.FullWindow,
		AdaptiveTarget: cfg.AdaptiveTarget,
		MissPenalty:    cfg.MissPenalty,
		Cache:          cfg.Cache,
		StackBytes:     cfg.StackBytes,
		StealLatency:   cfg.StealLatency,
		QueueLatency:   cfg.QueueLatency,
		SpinLocks:      cfg.SpinLocks,
		Record:         cfg.CheckInvariants,
	})
	met, err := m.Run(p)
	if err == nil && cfg.CheckInvariants {
		meta, evs := m.Stream()
		_, err = rtrace.Verify(meta, evs, 0)
	}
	return met, err
}
