package main

import (
	"time"

	"dfdeques/internal/serve/api"
)

// loop says how a workload offers its jobs.
type loop int

const (
	closedLoop loop = iota // clients over HTTP, each waiting for its reply
	openLoop               // requests over HTTP on a schedule, whatever the replies do
	libLoop                // one submitter calling the library, one job at a time
)

// workload is one frozen set of inputs. The sizes were calibrated once on
// the reference host (bench/README.md has the record) and do not follow
// the host: only worker, client and connection counts do, and those are
// always the processor count.
type workload struct {
	name string
	why  string
	loop loop
	k    int64 // the runtime's memory threshold K, bytes

	// warmJobs is the fixed amount of work that ends set-up: set-up time is
	// process start (or NewRuntime) to the last of these jobs done.
	warmJobs int
	// sloMs is the latency limit of slo_met_share: five times the p50
	// measured at calibration, frozen.
	sloMs float64

	// Serve workloads: tenant weights (tenant i is "t<i>"), the memory
	// budget of the last tenant, the job mix, and for the open loop the
	// arrival plan.
	weights    []int
	lastBudget int64
	trees      []api.TreeSpec
	mix        []float64 // share of each tree among the jobs
	rate       float64   // Poisson arrivals per second
	burstEvery time.Duration
	burstSize  int

	// Lib workloads: the job body and whether a trace recorder is the
	// runtime's probe.
	job      *libJob
	recorder bool
}

// Every workload, in the order they run and are reported.
var workloads = []*workload{
	{
		name: "serve-small-closed",
		why:  "tiny tree jobs over HTTP, one waiting client per processor: serve does most of the work and the scheduler almost none",
		loop: closedLoop, k: 4096, warmJobs: 2000, sloMs: 1.4,
		weights: []int{1, 1, 1, 1},
		trees:   []api.TreeSpec{{Depth: 4, Alloc: 128, Work: 2}}, mix: []float64{1},
	},
	{
		name: "serve-mixed-open",
		why:  "Poisson arrivals plus bursts of a heavy-tailed tree mix, sent whatever the replies do: the admission queue fills and small jobs wait behind large ones",
		loop: openLoop, k: 4096, warmJobs: 500, sloMs: 2.5,
		weights: []int{3, 1, 1, 1}, lastBudget: 64 << 20,
		trees: []api.TreeSpec{
			{Depth: 4, Alloc: 128, Work: 16},
			{Depth: 8, Alloc: 512, Work: 32},
			{Depth: 11, Alloc: 2048, Work: 64},
		},
		mix:  []float64{0.7, 0.2, 0.1},
		rate: 200, burstEvery: 500 * time.Millisecond, burstSize: 16,
	},
	{
		name: "lib-forkjoin-fine",
		why:  "a depth-12 fork tree with light leaves through the library: the owner's inline fork and join, few steals, serve idle",
		loop: libLoop, k: 4096, warmJobs: 50, sloMs: 16, job: treeJob,
	},
	{
		name: "lib-quota-steal",
		why:  "a fork chain whose quota runs out at every second allocation: the same deque, core and policy code as lib-forkjoin-fine, entered from the thief's side",
		loop: libLoop, k: 128, warmJobs: 50, sloMs: 18, job: chainJob,
	},
	{
		name: "lib-traced",
		why:  "lib-quota-steal with a trace recorder as the runtime's probe: the recorder does most of the added work",
		loop: libLoop, k: 128, warmJobs: 50, sloMs: 28, job: chainJob, recorder: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
