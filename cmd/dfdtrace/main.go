// Command dfdtrace runs a small computation under DFDeques on the
// simulator, records its schedule as an rtrace stream, prints the stream's
// scheduling records and replay-verifies it — a debugging lens on the
// algorithm.
//
// Two modes, one checking path (rtrace.Summarize, the cache block, then
// rtrace.Verify's report):
//
//	default        simulator: one line per dispatch (steal or resume),
//	               fork, block (join suspend or lock), complete, quota
//	               exhaustion and dummy, then the replay of the whole
//	               stream (Lemma 3.1 ordering, dispatch conservation,
//	               quota accounting)
//	-verify FILE   replay-verify a real-runtime trace file the same way;
//	               exits nonzero if any invariant fails
//
// Real runs are recorded by `dfdsim -real -trace FILE`.
//
// Usage:
//
//	dfdtrace [flags]
//
// Flags:
//
//	-procs N    processors (default 2)
//	-k BYTES    memory threshold (default 200)
//	-seed S     seed (default 1)
//	-depth D    fork-tree depth of the traced program (default 3)
//	-alloc B    bytes allocated per node (default 150; > K exercises
//	            the dummy-thread transformation)
//	-max N      print at most N trace lines (default 200)
//	-gantt      render an ASCII Gantt chart of processor occupancy
//	-width N    Gantt chart width in columns (default 100)
//	-verify F   replay-verify an existing trace file and exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"dfdeques/internal/dag"
	"dfdeques/internal/gantt"
	"dfdeques/internal/machine"
	"dfdeques/internal/rtrace"
)

func tree(depth int, alloc int64) *dag.ThreadSpec {
	if depth == 0 {
		return dag.NewThread("leaf").Alloc(alloc).Work(3).Free(alloc).Spec()
	}
	return dag.NewThread("node").
		Alloc(alloc).
		Fork(tree(depth-1, alloc)).Fork(tree(depth-1, alloc)).Join().Join().
		Free(alloc).
		Spec()
}

func main() {
	procs := flag.Int("procs", 2, "processors")
	k := flag.Int64("k", 200, "memory threshold")
	seed := flag.Int64("seed", 1, "seed")
	depth := flag.Int("depth", 3, "fork-tree depth")
	alloc := flag.Int64("alloc", 150, "bytes per node")
	maxLines := flag.Int("max", 200, "max trace lines")
	wantGantt := flag.Bool("gantt", false, "render processor-occupancy Gantt chart")
	width := flag.Int("width", 100, "Gantt chart width")
	verifyFile := flag.String("verify", "", "replay-verify a trace file and exit")
	flag.Parse()

	if *verifyFile != "" {
		verifyTrace(*verifyFile)
		return
	}

	spec := tree(*depth, *alloc)
	sm := dag.Measure(spec)
	fmt.Printf("program: fork tree depth %d, alloc %d/node: W=%d D=%d S1=%d\n\n",
		*depth, *alloc, sm.W, sm.D, sm.HeapHW)

	m := machine.New(machine.Config{Procs: *procs, Seed: *seed, Scheduler: "DFD", K: *k, Record: true})
	met, err := m.Run(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfdtrace: %v\n", err)
		os.Exit(1)
	}
	meta, evs := m.Stream()
	printSchedule(evs, *maxLines)
	fmt.Printf("\ncompleted in %d steps: %d steals, %d preemptions, %d dummies, heap HW %d\n",
		met.Steps, met.Steals, met.Preemptions, met.DummyThreads, met.HeapHW)
	check(meta, evs, 0)
	if *wantGantt {
		fmt.Print("\n", gantt.Build(*procs, evs).Render(*width))
	}
}

// printSchedule writes one line per record of the six kinds that carry a
// thread's schedule, at most max lines: a dispatch, from a steal or a
// resume; a fork and its child; a block, a join's suspend on a child or a
// lock's; a complete; a quota exhaustion and its bytes; a dummy.
func printSchedule(evs []rtrace.Event, max int) {
	n := 0
	for _, e := range evs {
		var what string
		switch e.Kind {
		case rtrace.EvDispatch:
			what = " resume"
			if e.B == rtrace.SrcAcquire {
				what = " steal"
			}
		case rtrace.EvFork:
			what = fmt.Sprintf(" child=%d", e.B)
			if e.C == 1 {
				what += " dummy"
			}
		case rtrace.EvBlock:
			what = " lock"
			if e.B == rtrace.BlockJoin {
				what = fmt.Sprintf(" join child=%d", e.C)
			}
		case rtrace.EvQuotaExhaust:
			what = fmt.Sprintf(" bytes=%d", e.B)
		case rtrace.EvComplete, rtrace.EvDummy:
		default:
			continue
		}
		if n++; n > max {
			fmt.Println("... (trace truncated; raise -max)")
			return
		}
		fmt.Printf("step=%d proc=%d %-13s thread=%d%s\n", e.TS, e.W, e.Kind, e.A, what)
	}
}

// check is the one path both modes take through a stream: its summary,
// the work-first engine's promotion count, the parallel cache-complexity
// block when the stream carried data touches (the paper's §4 locality
// story, mirrored from dfdsim), then the replay verdict, which exits
// nonzero on failure.
func check(meta rtrace.Meta, evs []rtrace.Event, dropped uint64) {
	sum := rtrace.Summarize(meta, evs, dropped)
	fmt.Printf("\ntrace summary: %d events, steal success %.1f%%, deque high-water %d\n",
		sum.Events, 100*sum.StealSuccessRate, sum.DequeHighWater)
	if meta.Engine == rtrace.EngineCont {
		fmt.Printf("  promotions:        %d of %d threads grew a goroutine frame\n",
			sum.Promotions, sum.Threads)
	}
	sum.Cache.Print(os.Stdout)
	report(rtrace.Verify(meta, evs, dropped))
}

// verifyTrace replays a trace file through the invariant verifier.
func verifyTrace(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfdtrace: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	meta, evs, dropped, err := rtrace.Load(bufio.NewReader(f))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfdtrace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %s p=%d K=%d seed=%d, %d events (%d dropped)\n",
		path, meta.Policy, meta.Workers, meta.K, meta.Seed, len(evs), dropped)
	check(meta, evs, dropped)
}

// report prints a Verify outcome and exits nonzero on failure.
func report(rep rtrace.Report, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "REPLAY FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nreplay verified: %d events, %d threads (%d dummy), %d dispatches, %d steals, %d preemptions, %d checks\n",
		rep.Events, rep.Threads, rep.DummyThreads, rep.Dispatches, rep.Steals, rep.QuotaExhausts, rep.Checks)
	if rep.OrderingExact {
		fmt.Println("Lemma 3.1 ordering, dispatch conservation and quota accounting all held.")
	} else {
		fmt.Println("dispatch conservation and quota accounting held; ordering checks were partial:")
		for _, n := range rep.Notes {
			fmt.Println("  " + n)
		}
	}
}
