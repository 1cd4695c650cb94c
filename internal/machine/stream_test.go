package machine_test

import (
	"strings"
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
	"dfdeques/internal/rtrace"
	"dfdeques/internal/workload"
)

// recordRun runs spec under cfg with recording on and returns the run's
// metrics and stream. MaxSteps bounds the stream of a livelock, which
// would otherwise grow until memory runs out: no schedule these tests run
// takes four times the program's work in timesteps.
func recordRun(t *testing.T, cfg machine.Config, spec *dag.ThreadSpec) (machine.Metrics, rtrace.Meta, []rtrace.Event) {
	t.Helper()
	cfg.Record, cfg.MaxSteps = true, 4*dag.Measure(spec).W+1000
	m := machine.New(cfg)
	met, err := m.Run(spec)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	meta, evs := m.Stream()
	return met, meta, evs
}

// verifyRun records spec's run under cfg and replays the stream through
// rtrace.Verify.
func verifyRun(t *testing.T, cfg machine.Config, spec *dag.ThreadSpec) (machine.Metrics, rtrace.Report, error) {
	t.Helper()
	met, meta, evs := recordRun(t, cfg, spec)
	rep, err := rtrace.Verify(meta, evs, 0)
	return met, rep, err
}

// record returns the stream of spec's run under cfg.
func record(t *testing.T, cfg machine.Config, spec *dag.ThreadSpec) []rtrace.Event {
	t.Helper()
	_, _, evs := recordRun(t, cfg, spec)
	return evs
}

// threadsOf returns the A payload (the thread) of every record of kind k,
// in stream order.
func threadsOf(evs []rtrace.Event, k rtrace.Kind) []int64 {
	var ids []int64
	for _, e := range evs {
		if e.Kind == k {
			ids = append(ids, e.A)
		}
	}
	return ids
}

// TestEveryPaperRunReplayVerifies records every simulator run of the
// seven paper workloads under the five scheduler names at both grains on
// p = 8 and replays each stream: the lock-free ones with Lemma 3.1
// ordering exact, Barnes Hut (the one that takes locks) with the ordering
// checks stopped at its first lock block and a note saying so. Under
// DFDeques the stream's steals and attempts are also the run's counts.
func TestEveryPaperRunReplayVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("records ~70 runs")
	}
	for _, w := range workload.All() {
		for _, g := range []workload.Grain{workload.Medium, workload.Fine} {
			spec := w.Build(g)
			for _, name := range machine.Names {
				met, meta, evs := recordRun(t, machine.Config{Procs: 8, Seed: 1, Scheduler: name, K: 3000}, spec)
				rep, err := rtrace.Verify(meta, evs, 0)
				if err != nil {
					t.Errorf("%s %s %s: %v", w.Name, g, name, err)
					continue
				}
				// Every steal attempt of a steal round is a record, so the
				// stream's steal counts are the run's.
				if sum := rtrace.Summarize(meta, evs, 0); meta.Policy == "DFDeques" &&
					(sum.Steals != met.Steals || sum.StealAttempts-sum.Steals != met.FailedSteals) {
					t.Errorf("%s %s %s: stream has %d steals of %d attempts, the run %d steals and %d failed",
						w.Name, g, name, sum.Steals, sum.StealAttempts, met.Steals, met.FailedSteals)
				}
				if rep.Threads != met.TotalThreads || rep.DummyThreads != met.DummyThreads {
					t.Errorf("%s %s %s: replay saw %d threads (%d dummy), the run %d (%d)",
						w.Name, g, name, rep.Threads, rep.DummyThreads, met.TotalThreads, met.DummyThreads)
				}
				locks := w.HasLocks
				if rep.OrderingExact == locks {
					t.Errorf("%s %s %s: OrderingExact = %v", w.Name, g, name, rep.OrderingExact)
				}
				if locks && (len(rep.Notes) == 0 || !strings.Contains(rep.Notes[0], "lock/future blocks")) {
					t.Errorf("%s %s %s: notes %q name no lock block", w.Name, g, name, rep.Notes)
				}
			}
		}
	}
}

// TestAdaptiveRunsReplayVerify: the §7 controller moves K between steal
// rounds, and each move is a record (EvThreshold) the replay reads the
// quota and the dummy-tree sizes against from there on.
func TestAdaptiveRunsReplayVerify(t *testing.T) {
	for _, w := range workload.All() {
		for _, target := range []int64{16 << 10, 1 << 20} {
			cfg := machine.Config{Procs: 8, Seed: 3, Scheduler: "DFD", K: 1024, AdaptiveTarget: target}
			if _, rep, err := verifyRun(t, cfg, w.Build(workload.Fine)); err != nil || rep.OrderingExact == w.HasLocks {
				t.Errorf("%s, target %d: %v (OrderingExact %v)", w.Name, target, err, rep.OrderingExact)
			}
		}
	}
}
