// Command dfdtrace runs a small computation under DFDeques with full
// per-event tracing and per-timestep Lemma 3.1 invariant checking, and
// dumps the schedule — a debugging lens on the algorithm.
//
// Two modes:
//
//	default        simulator: per-event trace + per-timestep invariant
//	               checks (the machine's deterministic lens)
//	-verify FILE   replay-verify a real-runtime trace file (Lemma 3.1
//	               ordering, dispatch conservation, quota accounting);
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
	"io"
	"os"

	"dfdeques/internal/dag"
	"dfdeques/internal/gantt"
	"dfdeques/internal/machine"
	"dfdeques/internal/rtrace"
)

// limitWriter stops writing after n lines.
type limitWriter struct {
	w     io.Writer
	left  int
	muted bool
}

func (lw *limitWriter) Write(p []byte) (int, error) {
	if lw.left <= 0 {
		if !lw.muted {
			lw.muted = true
			fmt.Fprintln(lw.w, "... (trace truncated; raise -max)")
		}
		return len(p), nil
	}
	lw.left--
	return lw.w.Write(p)
}

func tree(depth int, alloc int64) *dag.ThreadSpec {
	if depth == 0 {
		return dag.NewThread("leaf").Alloc(alloc).Work(3).Free(alloc).Spec()
	}
	l := tree(depth-1, alloc)
	r := tree(depth-1, alloc)
	return dag.NewThread("node").
		Alloc(alloc).
		Fork(l).Fork(r).Join().Join().
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

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	gb := gantt.NewBuilder(*procs)
	cfg := machine.Config{
		Procs:           *procs,
		Seed:            *seed,
		Scheduler:       "DFD",
		K:               *k,
		CheckInvariants: true,
		Trace:           &limitWriter{w: out, left: *maxLines},
	}
	if *wantGantt {
		cfg.Observer = gb.Event
	}
	m := machine.New(cfg)

	met, err := m.Run(spec)
	if err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "dfdtrace: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "\ncompleted in %d steps: %d steals, %d preemptions, %d dummies, heap HW %d\n",
		met.Steps, met.Steals, met.Preemptions, met.DummyThreads, met.HeapHW)
	fmt.Fprintln(out, "Lemma 3.1 invariants held at every timestep.")
	if *wantGantt {
		gb.Finish()
		fmt.Fprintln(out)
		fmt.Fprint(out, gb.Render(*width))
	}
}

// printSummary renders the trace-summary lens on a recorded stream: the
// work-first engine's promotion count and, when the stream carried data
// touches, the parallel cache-complexity block (the paper's §4 locality
// story, mirrored from dfdsim).
func printSummary(sum *rtrace.Summary) {
	fmt.Printf("\ntrace summary: %d events, steal success %.1f%%, deque high-water %d\n",
		sum.Events, 100*sum.StealSuccessRate, sum.DequeHighWater)
	fmt.Printf("  promotions:        %d of %d threads grew a goroutine frame\n",
		sum.Promotions, sum.Threads)
	c := sum.Cache
	if c == nil {
		return
	}
	fmt.Printf("\ncache complexity (simulated %d KB/worker, %d B lines):\n",
		c.CapacityBytes>>10, c.LineBytes)
	fmt.Printf("  touches:           %d (%d bytes)\n", c.Touches, c.TouchedBytes)
	fmt.Printf("  parallel misses:   %d (%.1f%%)\n", c.ParMisses, 100*c.ParMissRate)
	fmt.Printf("  1DF serial misses: %d (%.1f%%)\n", c.SeqMisses, 100*c.SeqMissRate)
	fmt.Printf("  extra misses:      %d\n", c.ExtraMisses)
	fmt.Printf("  deviations:        %d (%d steals + %d queue takes + %d migrations)\n",
		c.Deviations, c.Steals, c.QueueTakes, c.Migrations)
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
	sum := rtrace.Summarize(meta, evs, dropped)
	printSummary(&sum)
	report(rtrace.Verify(meta, evs, dropped))
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
