package main

import "slices"

// def is one metric of the benchmark: BENCHMARK.json lists the same names,
// units and directions, and a test keeps the two in step.
type def struct {
	name, unit string
	better     string // "higher" or "lower"
	// source is where a per-layer metric comes from: the name of the probe
	// under bench/probes that measures it, or "" for the traced run of the
	// workload itself.
	source string
}

// The end-to-end metrics, measured with tracing off. Every workload
// reports every one of them.
var endToEndDefs = []def{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "jobs_per_s", unit: "1/s", better: "higher"},
	{name: "job_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "slo_met_share", unit: "share", better: "higher"},
	{name: "verified_share", unit: "share", better: "higher"},
	{name: "cpu_ms_per_job", unit: "ms", better: "lower"},
	{name: "heap_hw_over_s1", unit: "ratio", better: "lower"},
	{name: "allocs_per_job", unit: "count", better: "lower"},
}

// notApplicable is the value of a per-layer metric that the workload of
// the run has no reading for (a lock counter the child does not export, a
// recorder row on a workload without the library in the harness), and of
// a probe row whose probe did not build or run.
const notApplicable = -1

// The per-layer metrics. Probe rows do not depend on the workload.
var perLayerDefs = []def{
	{"deque.push_pop_ns", "ns", "lower", "deque"},
	{"deque.steal_ns", "ns", "lower", "deque"},
	{"deque.owner_under_steal_ns", "ns", "lower", "deque"},
	{"deque.steal_success_share", "share", "higher", "deque"},
	{"deque.list_insert_delete_ns", "ns", "lower", "deque"},
	{"deque.allocs_per_steal", "count", "lower", "deque"},
	{"om.insert_delete_ns", "ns", "lower", "om"},
	{"om.less_ns", "ns", "lower", "om"},
	{"core.push_pop_own_ns", "ns", "lower", "core"},
	{"core.steal_cycle_ns", "ns", "lower", "core"},
	{"core.allocs_per_steal_cycle", "count", "lower", "core"},
	{"core.list_lock_ops_per_steal", "count", "lower", "core"},
	{"core.push_woken_ns", "ns", "lower", "core"},
	{"policy.dfd_fork_join_ns", "ns", "lower", "policy"},
	{"policy.dfd_charge_credit_ns", "ns", "lower", "policy"},
	{"policy.dfd_preempt_acquire_ns", "ns", "lower", "policy"},
	{"policy.inject_ns", "ns", "lower", "policy"},
	{"policy.ws_fork_join_ns", "ns", "lower", "policy"},
	{"grt.fork_join_ns", "ns", "lower", "grt"},
	{"grt.fork_join_pn_ns", "ns", "lower", "grt"},
	{"grt.alloc_free_ns", "ns", "lower", "grt"},
	{"grt.big_alloc_ns", "ns", "lower", "grt"},
	{"grt.submit_wait_us", "us", "lower", "grt"},
	{"grt.block_wake_us", "us", "lower", "grt"},
	{"grt.steals_per_job", "count", "lower", ""},
	{"grt.failed_steal_share", "share", "lower", ""},
	{"grt.preemptions_per_job", "count", "lower", ""},
	{"grt.dummy_threads_per_job", "count", "lower", ""},
	{"grt.promotions_per_job", "count", "lower", ""},
	{"grt.max_live_threads", "count", "lower", ""},
	{"grt.max_deques", "count", "lower", ""},
	{"grt.sched_lock_ops_per_job", "count", "lower", ""},
	{"grt.sched_lock_wait_share", "share", "lower", ""},
	{"grt.steal_wait_share", "share", "lower", ""},
	{"rtrace.event_ns", "ns", "lower", "rtrace"},
	{"rtrace.event_contended_ns", "ns", "lower", "rtrace"},
	{"rtrace.counters_event_ns", "ns", "lower", "rtrace"},
	{"rtrace.summarize_ms_per_100k", "ms", "lower", "rtrace"},
	{"rtrace.verify_ms_per_100k", "ms", "lower", "rtrace"},
	{"rtrace.export_ms_per_100k", "ms", "lower", "rtrace"},
	{"rtrace.events_per_thread", "count", "lower", ""},
	{"rtrace.dropped_share", "share", "lower", ""},
	{"rtrace.verify_fail_share", "share", "lower", ""},
	{"rtrace.recorder_overhead_share", "share", "lower", ""},
	{"serve.submit_rtt_p50_ms", "ms", "lower", "serve"},
	{"serve.wait_rtt_p50_ms", "ms", "lower", "serve"},
	{"serve.get_rtt_p50_ms", "ms", "lower", "serve"},
	{"serve.metrics_scrape_ms", "ms", "lower", "serve"},
	{"serve.accept_to_finish_p50_ms", "ms", "lower", ""},
	{"serve.accept_to_finish_p99_ms", "ms", "lower", ""},
	{"serve.open_latency_p99_ms", "ms", "lower", ""},
	{"serve.rejected_queue_full", "count", "lower", ""},
	{"serve.rejected_over_budget", "count", "lower", ""},
	{"serve.rejected_cost_shed", "count", "lower", ""},
	{"serve.budget_kills", "count", "lower", ""},
	{"proc.peak_rss_mb", "MB", "lower", ""},
	{"proc.sut_crashes", "count", "lower", ""},
	{"bench.generator_late_p50_ms", "ms", "lower", ""},
	{"bench.generator_late_p99_ms", "ms", "lower", ""},
	{"bench.loadgen_cpu_share", "share", "lower", ""},
	{"bench.trace_overhead_share", "share", "lower", ""},
}

// probeLayers are the probes under bench/probes that the table names, in
// the order they first appear.
func probeLayers() []string {
	var layers []string
	for _, d := range perLayerDefs {
		if d.source != "" && !slices.Contains(layers, d.source) {
			layers = append(layers, d.source)
		}
	}
	return layers
}
