package serve

// Prometheus text exposition (/metrics). Two families:
//
//   - dfd_*: the shared runtime's scheduling counters, projected from
//     the live rtrace.Counters probe through the same Summary schema
//     Summarize derives from a recorded stream — steals, promotions,
//     quota exhausts, dispatches — plus steals-per-second over the
//     server's uptime.
//   - dfdserve_*: the serving layer — per-tenant submission/admission/
//     rejection/cancel counters, budget gauges (limit, live heap, high
//     water), reserved admission cost, queue depths, auth failures, and
//     job-latency quantile summaries from each tenant's recent ring.
//
// Per-tenant rows iterate a snapshot of the live tenant table, so
// scrapes are consistent under concurrent tenant CRUD. Hand-rolled
// exposition keeps the container dependency-free; the format is the
// stable text/plain; version=0.0.4.

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

var latQuantiles = []float64{0.5, 0.9, 0.99}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.writeRuntimeMetrics(&b)
	s.writeServeMetrics(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

func metric(b *strings.Builder, name, typ, help string, rows func(b *strings.Builder)) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	rows(b)
}

func (s *Server) writeRuntimeMetrics(b *strings.Builder) {
	sum := s.counters.LiveSummary()
	uptime := time.Since(s.start).Seconds()

	type row struct {
		name, typ, help string
		val             float64
	}
	rows := []row{
		{"dfd_threads_total", "counter", "Threads created (forks plus job roots).", float64(sum.Threads)},
		{"dfd_dummy_threads_total", "counter", "Dummy threads from the big-allocation transformation.", float64(sum.DummyThreads)},
		{"dfd_jobs_total", "counter", "Jobs submitted to the runtime.", float64(sum.Jobs)},
		{"dfd_jobs_canceled_total", "counter", "Jobs canceled (context, budget, shutdown).", float64(sum.CanceledJobs)},
		{"dfd_threads_completed_total", "counter", "Threads run to completion.", float64(sum.Completed)},
		{"dfd_dispatches_total", "counter", "Thread dispatches.", float64(sum.Dispatches)},
		{"dfd_local_dispatches_total", "counter", "Dispatches off the worker's own deque top.", float64(sum.LocalDispatches)},
		{"dfd_steals_total", "counter", "Successful steals.", float64(sum.Steals)},
		{"dfd_steal_attempts_total", "counter", "Steal attempts.", float64(sum.StealAttempts)},
		{"dfd_promotions_total", "counter", "Threads given a goroutine: inline frames promoted at a block or give-up, and first dispatches of never-run threads.", float64(sum.Promotions)},
		{"dfd_quota_exhausts_total", "counter", "Memory-quota preemptions (the paper's K).", float64(sum.QuotaExhausts)},
		{"dfd_dummy_splits_total", "counter", "Big allocations split through dummy trees.", float64(sum.DummySplits)},
		{"dfd_deque_high_water", "gauge", "Peak deque-list population.", float64(sum.DequeHighWater)},
		{"dfd_steal_success_rate", "gauge", "Steals per steal attempt.", sum.StealSuccessRate},
		{"dfd_sched_granularity", "gauge", "Dispatches per shared-structure acquisition.", sum.SchedGranularity},
	}
	if uptime > 0 {
		rows = append(rows, row{"dfd_steals_per_second", "gauge", "Steal rate over server uptime.", float64(sum.Steals) / uptime})
	}
	for _, r := range rows {
		metric(b, r.name, r.typ, r.help, func(b *strings.Builder) {
			fmt.Fprintf(b, "%s %s\n", r.name, fmtFloat(r.val))
		})
	}
}

func (s *Server) writeServeMetrics(b *strings.Builder) {
	uptime := time.Since(s.start).Seconds()
	tenants := s.adm.snapshot()
	inflight, pending := s.adm.load()

	metric(b, "dfdserve_uptime_seconds", "gauge", "Seconds since the server started.", func(b *strings.Builder) {
		fmt.Fprintf(b, "dfdserve_uptime_seconds %s\n", fmtFloat(uptime))
	})
	metric(b, "dfdserve_tenants", "gauge", "Tenants currently configured.", func(b *strings.Builder) {
		fmt.Fprintf(b, "dfdserve_tenants %d\n", len(tenants))
	})
	metric(b, "dfdserve_inflight_jobs", "gauge", "Jobs currently running.", func(b *strings.Builder) {
		fmt.Fprintf(b, "dfdserve_inflight_jobs %d\n", inflight)
	})
	metric(b, "dfdserve_pending_jobs", "gauge", "Jobs queued for admission across tenants.", func(b *strings.Builder) {
		fmt.Fprintf(b, "dfdserve_pending_jobs %d\n", pending)
	})
	metric(b, "dfdserve_auth_failures_total", "counter", "Requests refused 401 (missing or wrong key).", func(b *strings.Builder) {
		fmt.Fprintf(b, "dfdserve_auth_failures_total %d\n", s.authFailures.Load())
	})
	metric(b, "dfdserve_unknown_tenant_total", "counter", "Submissions naming an unconfigured tenant.", func(b *strings.Builder) {
		fmt.Fprintf(b, "dfdserve_unknown_tenant_total %d\n", s.unknownTenants.Load())
	})

	perTenant := func(name, typ, help string, val func(t *tenant) string) {
		metric(b, name, typ, help, func(b *strings.Builder) {
			for _, t := range tenants {
				fmt.Fprintf(b, "%s{tenant=%q} %s\n", name, t.name, val(t))
			}
		})
	}
	perTenant("dfdserve_jobs_submitted_total", "counter", "Submissions received (admitted or refused).",
		func(t *tenant) string { return fmt.Sprint(t.submitted.Load()) })
	perTenant("dfdserve_jobs_admitted_total", "counter", "Jobs admitted by the weighted-fair dispatcher.",
		func(t *tenant) string { return fmt.Sprint(t.admitted.Load()) })
	perTenant("dfdserve_jobs_completed_total", "counter", "Jobs finished successfully.",
		func(t *tenant) string { return fmt.Sprint(t.completed.Load()) })
	perTenant("dfdserve_jobs_failed_total", "counter", "Jobs finished with an error (including budget kills).",
		func(t *tenant) string { return fmt.Sprint(t.failed.Load()) })
	perTenant("dfdserve_jobs_canceled_total", "counter", "Jobs canceled by request (DELETE /v1/jobs).",
		func(t *tenant) string { return fmt.Sprint(t.canceled.Load()) })
	perTenant("dfdserve_budget_kills_total", "counter", "Jobs killed for exceeding the tenant memory budget.",
		func(t *tenant) string { return fmt.Sprint(t.budget.Kills()) })
	perTenant("dfdserve_pending", "gauge", "Tenant's queued jobs.",
		func(t *tenant) string { _, pending, _ := s.adm.tenantShape(t); return fmt.Sprint(pending) })
	perTenant("dfdserve_budget_limit_bytes", "gauge", "Tenant memory budget (0 = no quota).",
		func(t *tenant) string { return fmt.Sprint(t.budget.Limit()) })
	perTenant("dfdserve_budget_live_bytes", "gauge", "Tenant live heap across in-flight jobs.",
		func(t *tenant) string { return fmt.Sprint(t.budget.HeapLive()) })
	perTenant("dfdserve_budget_hw_bytes", "gauge", "Tenant live-heap high water.",
		func(t *tenant) string { return fmt.Sprint(t.budget.HeapHW()) })
	perTenant("dfdserve_reserved_cost_bytes", "gauge", "Predicted cost reserved by admitted unfinished jobs.",
		func(t *tenant) string { _, _, res := s.adm.tenantShape(t); return fmt.Sprint(res) })

	// Rejections carry a reason label, so they get their own block.
	metric(b, "dfdserve_jobs_rejected_total", "counter", "Submissions refused (429/401).", func(b *strings.Builder) {
		for _, t := range tenants {
			fmt.Fprintf(b, "dfdserve_jobs_rejected_total{tenant=%q,reason=\"queue_full\"} %d\n", t.name, t.rejectedQueue.Load())
			fmt.Fprintf(b, "dfdserve_jobs_rejected_total{tenant=%q,reason=\"over_budget\"} %d\n", t.name, t.rejectedBudget.Load())
			fmt.Fprintf(b, "dfdserve_jobs_rejected_total{tenant=%q,reason=\"cost_shed\"} %d\n", t.name, t.rejectedCost.Load())
			fmt.Fprintf(b, "dfdserve_jobs_rejected_total{tenant=%q,reason=\"unauthorized\"} %d\n", t.name, t.rejectedAuth.Load())
		}
	})

	// Latency summaries: quantiles over each tenant's recent ring plus
	// the true running count and sum.
	metric(b, "dfdserve_job_latency_seconds", "summary", "End-to-end job latency (submit to finish), recent-window quantiles.", func(b *strings.Builder) {
		for _, t := range tenants {
			ns, count, sumNs := t.lat.snapshot()
			qv := quantiles(ns, latQuantiles)
			for i, q := range latQuantiles {
				fmt.Fprintf(b, "dfdserve_job_latency_seconds{tenant=%q,quantile=\"%s\"} %s\n",
					t.name, trimFloat(q), fmtFloat(float64(qv[i])/1e9))
			}
			fmt.Fprintf(b, "dfdserve_job_latency_seconds_count{tenant=%q} %d\n", t.name, count)
			fmt.Fprintf(b, "dfdserve_job_latency_seconds_sum{tenant=%q} %s\n", t.name, fmtFloat(float64(sumNs)/1e9))
		}
	})
}

// fmtFloat renders a metric value the way Prometheus expects: integral
// values without an exponent, everything else in shortest form.
func fmtFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func trimFloat(q float64) string {
	return fmt.Sprintf("%g", q)
}
