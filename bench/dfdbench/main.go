// Command dfdbench is the repository's benchmark harness. bench/run.sh
// builds it, dfdserve and the layer probes from the commit under test and
// starts it from the root of the checkout.
//
// With -workload it runs one workload once and ends its output with the
// one-line JSON summary of the benchmark contract: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. Without -workload it
// runs the whole benchmark, every workload in a process of its own:
// untraced, then traced, then the probe pass once. -selfcheck adds the A/A
// check; -quick is a smoke test of every code path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// host is where the numbers come from; it is printed with every run.
type host struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func hostFacts(commit string) host {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent: the field stays empty
	return host{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Kernel: strings.TrimSpace(string(kernel)), Commit: commit,
	}
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s kernel=%s commit=%s", h.NProc, h.GoMaxProcs, h.Go, h.Kernel, h.Commit)
}

func main() {
	var (
		name      = flag.String("workload", "", "run this workload once (default: the whole benchmark)")
		seed      = flag.Int64("seed", 1, "seed of arrival times, job draws, tenant choice and the runtime's steal seed")
		seconds   = flag.Int("seconds", 15, "length of the timed period")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the probe pass")
		binDir    = flag.String("bin", ".bench_build/bin", "directory of dfdserve and the probes, as bench/run.sh builds them")
		outDir    = flag.String("out", "bench/out", "directory for logs, trace files and results")
		commit    = flag.String("commit", "unknown", "commit under test, for the record")
		setups    = flag.Int("setups", 5, "set-ups per untraced run; setup_s is their median")
		probes    = flag.Bool("probes", true, "with -trace 1, run the probe pass too")
		probeMin  = flag.Duration("probe-min", 200*time.Millisecond, "shortest timed repetition of a probe row")
		probeReps = flag.Int("probe-reps", 3, "repetitions behind each probe row (the whole benchmark uses 5)")
		recorded  = flag.Int("recorded", 20, "recorded single-job runs behind the rtrace rows of a traced lib run")
		resultTo  = flag.String("result", "", "with -workload: also write the run's result, with sample counts, to this file")
		quick     = flag.Bool("quick", false, "whole benchmark as a smoke test: short periods, one probe repetition; not for claims")
		selfcheck = flag.Bool("selfcheck", false, "A/A check: after the whole benchmark, run every workload five more times and fail if the medians of alternate runs differ by more than a metric's bound")
		baseline  = flag.Bool("baseline", false, "after the whole benchmark, record the result as bench/baseline/<commit>.json")
	)
	flag.Parse()
	h := hostFacts(*commit)
	fmt.Println("# host", h)

	o := options{
		seed: *seed, seconds: *seconds, binDir: *binDir, outDir: *outDir, setups: *setups,
		probes: *probes, probeMin: *probeMin, probeReps: *probeReps, recorded: *recorded,
	}
	if *name == "" {
		s := suite{o: o, host: h, quick: *quick}
		if err := s.main(*selfcheck, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "dfdbench:", err)
			os.Exit(1)
		}
		return
	}
	if o.w = workloadByName(*name); o.w == nil {
		fmt.Fprintf(os.Stderr, "dfdbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if o.seconds < 1 || o.setups < 1 || o.probeReps < 1 || o.recorded < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "dfdbench: -seconds, -setups, -probe-reps and -recorded must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	r, err := o.run(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfdbench:", err)
		os.Exit(1)
	}
	if *resultTo != "" {
		raw, err := json.Marshal(r)
		if err == nil {
			err = os.WriteFile(*resultTo, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfdbench: write the result:", err)
			os.Exit(1)
		}
	}
	defs := endToEndDefs
	if r.Trace {
		defs = perLayerDefs
	}
	fmt.Println(r.contractLine(defs))
}

// run runs the workload once and prints its metrics.
func (o *options) run(trace bool) (result, error) {
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%t: %s\n", o.w.name, o.seed, o.seconds, trace, o.w.why)
	if err := o.prepare(); err != nil {
		return result{}, err
	}
	var (
		r    result
		err  error
		defs = endToEndDefs
	)
	if trace {
		defs = nil
		for _, d := range perLayerDefs {
			if o.probes || d.source == "" { // without the probe pass its rows say nothing
				defs = append(defs, d)
			}
		}
		r, err = o.traced()
	} else {
		r, err = o.untraced()
	}
	if err != nil {
		return r, err
	}
	r.print(defs)
	fmt.Printf("# attempted=%d failed=%d sut_crashes=%d\n", r.Attempted, r.Failed, r.Crashes)
	return r, nil
}
