package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfdeques"
	"dfdeques/internal/grt"
	"dfdeques/internal/serve/api"
	"dfdeques/internal/workload"
)

// The two wire types only the tests spell out, under the package's names.
type (
	TreeSpec  = api.TreeSpec
	SpecInstr = api.SpecInstr
)

func testConfig() Config {
	return Config{
		Runtime: dfdeques.RuntimeConfig{Workers: 2, Sched: dfdeques.SchedDFDeques, K: 1024, Seed: 42},
		Tenants: map[string]TenantConfig{
			"alice": {Weight: 2},
			"bob":   {Weight: 1},
			"hog":   {MemBudget: 8192, Weight: 1},
		},
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest, wait bool) (int, JobStatus, api.ErrorDetail) {
	t.Helper()
	body, _ := json.Marshal(req)
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	var env api.ErrorBody
	raw := json.RawMessage{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	_ = json.Unmarshal(raw, &st)
	_ = json.Unmarshal(raw, &env)
	return resp.StatusCode, st, env.Error
}

func getTenants(t *testing.T, ts *httptest.Server) map[string]TenantStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatalf("GET /v1/tenants: %v", err)
	}
	defer resp.Body.Close()
	var list []TenantStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode tenants: %v", err)
	}
	out := make(map[string]TenantStatus, len(list))
	for _, st := range list {
		out[st.Name] = st
	}
	return out
}

// TestSubmitScenarioWait drives the documented walkthrough: two tenants
// submit checksum-verified scenario jobs and block for the result.
func TestSubmitScenarioWait(t *testing.T) {
	s := newTestServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tenant := range []string{"alice", "bob"} {
		code, st, ae := postJob(t, ts, JobRequest{Tenant: tenant, Scenario: "pipeline", Seed: 7, Scale: 2}, true)
		if code != http.StatusOK {
			t.Fatalf("tenant %s: status %d (%+v)", tenant, code, ae)
		}
		if st.Status != "done" || st.Checksum == "" {
			t.Fatalf("tenant %s: job not done: %+v", tenant, st)
		}
		if st.LatencyMs <= 0 {
			t.Fatalf("tenant %s: missing latency: %+v", tenant, st)
		}
	}
	tens := getTenants(t, ts)
	if tens["alice"].Completed != 1 || tens["bob"].Completed != 1 {
		t.Fatalf("completions not accounted: %+v", tens)
	}
}

// TestSubmitTreePoll submits asynchronously and polls the job to
// completion; the returned stats must carry the job's heap high-water.
func TestSubmitTreePoll(t *testing.T) {
	s := newTestServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st, ae := postJob(t, ts, JobRequest{Tenant: "alice", Tree: &TreeSpec{Depth: 4, Alloc: 256, Work: 4}}, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%+v)", code, ae)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var cur JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatalf("poll decode: %v", err)
		}
		resp.Body.Close()
		if cur.Status == "done" {
			if cur.Stats == nil || cur.Stats.HeapHW < 256 {
				t.Fatalf("stats missing or implausible: %+v", cur.Stats)
			}
			break
		}
		if cur.Status == "failed" {
			t.Fatalf("job failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", cur.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitErrors(t *testing.T) {
	s := newTestServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  JobRequest
		code int
	}{
		{"unknown tenant", JobRequest{Tenant: "mallory", Scenario: "pipeline"}, http.StatusNotFound},
		{"no shape", JobRequest{Tenant: "alice"}, http.StatusBadRequest},
		{"two shapes", JobRequest{Tenant: "alice", Scenario: "pipeline", Tree: &TreeSpec{Depth: 1}}, http.StatusBadRequest},
		{"unknown scenario", JobRequest{Tenant: "alice", Scenario: "nope"}, http.StatusBadRequest},
		{"tree too deep", JobRequest{Tenant: "alice", Tree: &TreeSpec{Depth: maxTreeDepth + 1}}, http.StatusBadRequest},
		{"work scale negative", JobRequest{Tenant: "alice", Tree: &TreeSpec{Depth: 1}, WorkScale: -1}, http.StatusBadRequest},
		{"work scale too large", JobRequest{Tenant: "alice", Tree: &TreeSpec{Depth: 1}, WorkScale: maxWorkScale + 1}, http.StatusBadRequest},
		{"spec bad op", JobRequest{Tenant: "alice", Spec: &SpecNode{Instrs: []SpecInstr{{Op: "frob"}}}}, http.StatusBadRequest},
		{"spec join without fork", JobRequest{Tenant: "alice", Spec: &SpecNode{Instrs: []SpecInstr{{Op: "join"}}}}, http.StatusBadRequest},
		{"spec fork never joined", JobRequest{Tenant: "alice", Spec: &SpecNode{Instrs: []SpecInstr{{Op: "fork", Child: &SpecNode{Instrs: []SpecInstr{{Op: "work", N: 1}}}}}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, ae := postJob(t, ts, tc.req, false)
			if code != tc.code {
				t.Fatalf("want %d, got %d (%+v)", tc.code, code, ae)
			}
			if ae.Code == "" {
				t.Fatalf("error envelope missing")
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatalf("GET unknown job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: want 404, got %d", resp.StatusCode)
	}
}

// TestCostShedAndBudgetKill: a whale whose declared footprint can never
// fit its tenant's budget is refused up front with 429 cost_shed —
// never admitted, never killed — while work the gate cannot price
// (cost-exempt, scenario-class) that overruns the budget still dies
// mid-run with ErrBudget. The cost gate sheds what it can predict; the
// in-run kill polices the rest.
func TestCostShedAndBudgetKill(t *testing.T) {
	// One worker: the price S1 + K·D is exact for the unstolen schedule,
	// which is what the priced-parallel case below asserts. With a second
	// worker a steal can overlap its two 6000-byte siblings (12000 B) and
	// the in-run kill fires — the overshoot cost.go says the kill is for.
	cfg := testConfig()
	cfg.Runtime.Workers = 1
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The whale: S1 = 20000 alone exceeds hog's 8192-byte budget, so the
	// cost gate refuses it before it touches the runtime.
	code, _, ae := postJob(t, ts, JobRequest{Tenant: "hog", Tree: &TreeSpec{Depth: 0, Alloc: 20000}}, true)
	if code != http.StatusTooManyRequests || ae.Code != api.CodeCostShed {
		t.Fatalf("whale: want 429 cost_shed, got %d (%+v)", code, ae)
	}
	hogT, _ := s.adm.lookup("hog")
	if hogT.rejectedCost.Load() == 0 {
		t.Fatalf("cost shed not counted")
	}

	// A declared-parallel version of the same footprint clears the gate:
	// two forked siblings each holding 6000 price at 6000 + K·1 = 7024
	// (inside the 8192-byte budget). Unstolen they never overlap, so on this
	// one-worker server the job completes inside the budget; at p ≥ 2 the
	// same job is admitted and may still be killed mid-run.
	child := func() *SpecNode {
		return &SpecNode{Label: "side", Instrs: []SpecInstr{
			{Op: "alloc", N: 6000}, {Op: "work", N: 20000}, {Op: "free", N: 6000},
		}}
	}
	blowup := &SpecNode{Label: "root", Instrs: []SpecInstr{
		{Op: "fork", Child: child()},
		{Op: "fork", Child: child()},
		{Op: "work", N: 1},
		{Op: "join"}, {Op: "join"},
	}}
	code, st, _ := postJob(t, ts, JobRequest{Tenant: "hog", Spec: blowup}, true)
	if code != http.StatusOK || st.Status != "done" {
		t.Fatalf("priced-parallel job should run inside the bound: %d %+v", code, st)
	}

	// The kill path guards what admission cannot see: a cost-exempt job
	// (cost 0, the scenario class) whose single path allocates 20000
	// bytes crosses the budget mid-run and dies with ErrBudget.
	kill := &job{
		id: "t-kill", seq: 991, tenant: hogT, kind: "test", state: "pending",
		done: make(chan struct{}), submitAt: time.Now(),
		run: runnable{kind: "test", run: func(ctx context.Context, sub workload.Submitter) (jobResult, error) {
			gj, err := sub.Submit(ctx, func(tt *grt.T) {
				tt.Alloc(20000)
				tt.Free(20000)
			})
			if err != nil {
				return jobResult{}, err
			}
			_, err = gj.Wait()
			return jobResult{}, err
		}},
	}
	if err := s.adm.enqueue(kill); err != nil {
		t.Fatalf("kill job refused: %v", err)
	}
	<-kill.done
	if ks := kill.status(); ks.Status != "failed" || !strings.Contains(ks.Error, "memory budget") {
		t.Fatalf("want budget-killed job, got %+v", ks)
	}

	// The kill settles the tenant's balance, so a within-budget job
	// admitted afterwards must succeed.
	code, st, _ = postJob(t, ts, JobRequest{Tenant: "hog", Tree: &TreeSpec{Depth: 2, Alloc: 64, Work: 2}}, true)
	if code != http.StatusOK || st.Status != "done" {
		t.Fatalf("post-kill job should succeed: %d %+v", code, st)
	}

	tens := getTenants(t, ts)
	hog := tens["hog"]
	if hog.BudgetKills != 1 || hog.Failed != 1 || hog.Completed < 2 || hog.RejectedCost < 1 {
		t.Fatalf("kill accounting wrong: %+v", hog)
	}
	if hog.HeapLive != 0 {
		t.Fatalf("budget must settle to 0 after jobs end, got %d", hog.HeapLive)
	}
	if hog.HeapHW < 8192 {
		t.Fatalf("high water should record the overrun, got %d", hog.HeapHW)
	}
}

// blockingJob builds a job whose run blocks until gate closes.
func blockingJob(tn *tenant, gate chan struct{}, onRun func()) *job {
	return &job{
		id: "t-block", tenant: tn, kind: "test", state: "pending", done: make(chan struct{}),
		submitAt: time.Now(),
		run: runnable{kind: "test", run: func(ctx context.Context, sub workload.Submitter) (jobResult, error) {
			if onRun != nil {
				onRun()
			}
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return jobResult{}, nil
		}},
	}
}

// TestQueueFullBackpressure: with one inflight slot held and the pending
// queue at its bound, the next submission is refused with errQueueFull —
// which the HTTP layer maps to 429 — without touching other tenants.
func TestQueueFullBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 1
	cfg.Tenants["alice"] = TenantConfig{Weight: 1, MaxPending: 1}
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	alice := s.adm.tenants["alice"]
	gate := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	if err := s.adm.enqueue(blockingJob(alice, gate, func() { once.Do(func() { close(running) }) })); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-running // the blocker owns the only inflight slot
	if err := s.adm.enqueue(blockingJob(alice, gate, nil)); err != nil {
		t.Fatalf("queued job: %v", err)
	}
	// alice's queue is now full: the HTTP path must answer 429.
	code, _, ae := postJob(t, ts, JobRequest{Tenant: "alice", Tree: &TreeSpec{Depth: 1}}, false)
	if code != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d (%+v)", code, ae)
	}
	// Other tenants are unaffected.
	code, _, _ = postJob(t, ts, JobRequest{Tenant: "bob", Tree: &TreeSpec{Depth: 1}}, false)
	if code != http.StatusAccepted {
		t.Fatalf("bob should be accepted, got %d", code)
	}
	close(gate)
	waitIdle(t, s)
	if got := alice.rejectedQueue.Load(); got != 1 {
		t.Fatalf("rejectedQueue: want 1, got %d", got)
	}
}

// TestOverBudgetBackpressure: the budget is the one line admission reads.
// While a tenant's live heap sits at its budget — reached, not crossed,
// so no kill — an unpriced submission bounces with errOverBudget and a
// priced one with errOverCost, other tenants flow, and once the job
// frees, admission resumes.
func TestOverBudgetBackpressure(t *testing.T) {
	s := newTestServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hog := s.adm.tenants["hog"]
	limit := hog.budget.Limit()
	gate := make(chan struct{})
	holding := make(chan struct{})
	j := &job{
		id: "t-hold", tenant: hog, kind: "test", state: "pending", done: make(chan struct{}),
		submitAt: time.Now(),
		run: runnable{kind: "test", run: func(ctx context.Context, sub workload.Submitter) (jobResult, error) {
			gj, err := sub.Submit(ctx, func(tt *grt.T) {
				tt.Alloc(limit)
				close(holding)
				<-gate
				tt.Free(limit)
			})
			if err != nil {
				return jobResult{}, err
			}
			_, err = gj.Wait()
			return jobResult{}, err
		}},
	}
	if err := s.adm.enqueue(j); err != nil {
		t.Fatalf("holder: %v", err)
	}
	<-holding // live = budget: at the line, not past it
	if live := hog.budget.HeapLive(); live != limit {
		t.Fatalf("holder live heap %d, want the %d-byte budget", live, limit)
	}

	// A scenario job is unpriced (cost 0): the line itself refuses it.
	code, _, ae := postJob(t, ts, JobRequest{Tenant: "hog", Scenario: "pipeline", Seed: 1, Scale: 1}, false)
	if code != http.StatusTooManyRequests || ae.Code != api.CodeOverBudget {
		t.Fatalf("unpriced job: want 429 over_budget, got %d (%+v)", code, ae)
	}
	// A tree job is priced (K·D = 1024 here), and nothing is left to fit it.
	code, _, ae = postJob(t, ts, JobRequest{Tenant: "hog", Tree: &TreeSpec{Depth: 1}}, false)
	if code != http.StatusTooManyRequests || ae.Code != api.CodeCostShed {
		t.Fatalf("priced job: want 429 cost_shed, got %d (%+v)", code, ae)
	}
	if hog.rejectedBudget.Load() != 1 || hog.rejectedCost.Load() != 1 {
		t.Fatalf("refusals miscounted: over_budget %d, cost_shed %d",
			hog.rejectedBudget.Load(), hog.rejectedCost.Load())
	}
	// Unrelated tenants keep flowing while hog is parked.
	code, st, _ := postJob(t, ts, JobRequest{Tenant: "alice", Tree: &TreeSpec{Depth: 2, Alloc: 64}}, true)
	if code != http.StatusOK || st.Status != "done" {
		t.Fatalf("alice blocked by hog's budget: %d %+v", code, st)
	}

	close(gate)
	<-j.done
	// Settled: hog submits again successfully.
	code, st, _ = postJob(t, ts, JobRequest{Tenant: "hog", Tree: &TreeSpec{Depth: 1, Alloc: 32}}, true)
	if code != http.StatusOK || st.Status != "done" {
		t.Fatalf("hog should recover after free: %d %+v", code, st)
	}
}

// TestWeightedAdmissionOrder pins the SFQ interleave: with every job
// enqueued while the single inflight slot is held, a weight-3 tenant is
// admitted three times for each admission of a weight-1 tenant.
func TestWeightedAdmissionOrder(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 1
	cfg.Tenants = map[string]TenantConfig{
		"a": {Weight: 3, MaxPending: 16},
		"b": {Weight: 1, MaxPending: 16},
		"c": {Weight: 1, MaxPending: 16},
	}
	s := newTestServer(t, cfg)

	var mu sync.Mutex
	var order []string
	record := func(name string) *job {
		return &job{
			id: "t-" + name, kind: "test", state: "pending", done: make(chan struct{}),
			submitAt: time.Now(), tenant: s.adm.tenants[name],
			run: runnable{kind: "test", run: func(ctx context.Context, sub workload.Submitter) (jobResult, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return jobResult{}, nil
			}},
		}
	}

	gate := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	if err := s.adm.enqueue(blockingJob(s.adm.tenants["c"], gate, func() { once.Do(func() { close(running) }) })); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-running
	// Tags freeze at enqueue: a gets 1/3, 2/3, 1, 4/3, 5/3, 2 and b gets
	// 1, 2 — so admission must interleave 3:1 (ties go to "a" by name).
	for i := 0; i < 6; i++ {
		if err := s.adm.enqueue(record("a")); err != nil {
			t.Fatalf("enqueue a#%d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := s.adm.enqueue(record("b")); err != nil {
			t.Fatalf("enqueue b#%d: %v", i, err)
		}
	}
	close(gate)
	waitIdle(t, s)

	mu.Lock()
	got := strings.Join(order, "")
	mu.Unlock()
	if got != "aaabaaab" {
		t.Fatalf("admission order: want aaabaaab, got %q", got)
	}
}

func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.adm.mu.Lock()
		idle := s.adm.idleLocked()
		s.adm.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never went idle")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMetricsExposition scrapes /metrics after real traffic and checks
// both families are present and well-formed.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if code, st, _ := postJob(t, ts, JobRequest{Tenant: "alice", Tree: &TreeSpec{Depth: 5, Alloc: 128, Work: 2}}, true); code != 200 || st.Status != "done" {
			t.Fatalf("warmup job %d failed", i)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type: %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read: %v", err)
	}
	text := body.String()
	for _, want := range []string{
		"# TYPE dfd_threads_total counter",
		"dfd_dispatches_total ",
		"dfd_steal_attempts_total ",
		"dfd_promotions_total ",
		"dfd_quota_exhausts_total ",
		`dfdserve_jobs_completed_total{tenant="alice"} 3`,
		`dfdserve_budget_limit_bytes{tenant="hog"} 8192`,
		`dfdserve_jobs_rejected_total{tenant="alice",reason="queue_full"} 0`,
		`dfdserve_job_latency_seconds{tenant="alice",quantile="0.5"}`,
		`dfdserve_job_latency_seconds_count{tenant="alice"} 3`,
		"dfdserve_uptime_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestDrainAndGoroutines: Close flips /healthz, refuses new submissions,
// finishes queued work, and leaves no server goroutine behind.
func TestDrainAndGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	s, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz before drain: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
	code, st, _ := postJob(t, ts, JobRequest{Tenant: "bob", Tree: &TreeSpec{Depth: 6, Alloc: 64, Work: 4}}, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The queued job ran to completion during the drain.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatalf("poll after drain: %v", err)
	}
	var final JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if final.Status != "done" {
		t.Fatalf("drain must finish queued jobs, got %+v", final)
	}
	// Draining surface: healthz 503, submit 503, Close idempotent.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: want 503, got %d", resp.StatusCode)
	}
	if code, _, _ := postJob(t, ts, JobRequest{Tenant: "bob", Tree: &TreeSpec{Depth: 1}}, false); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: want 503, got %d", code)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
	ts.Close()

	// Zero goroutine leaks: everything the server started is gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 { // httptest teardown slack
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: started with %d, still at %d", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRetention evicts only completed jobs.
func TestRetention(t *testing.T) {
	cfg := testConfig()
	cfg.RetainJobs = 2
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		code, st, _ := postJob(t, ts, JobRequest{Tenant: "alice", Tree: &TreeSpec{Depth: 1}}, true)
		if code != 200 {
			t.Fatalf("job %d: %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	s.jmu.Lock()
	n := len(s.jobs)
	s.jmu.Unlock()
	if n > 3 {
		t.Fatalf("retention not enforced: %d jobs retained", n)
	}
	// The newest job is always still pollable.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[3])
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("newest job evicted: %v %v", err, resp)
	}
	resp.Body.Close()
}

// TestStalledBodyIsClosed is the body-side twin of cmd/dfdserve's
// TestStalledRequestLineIsClosed: a client that sends its headers and
// half a body, then stalls, is hung up on once the body deadline passes,
// while a ?wait=1 long poll that outlives the same deadline still answers
// "done".
func TestStalledBodyIsClosed(t *testing.T) {
	const slow = 300 * time.Millisecond
	s := newTestServer(t, testConfig())
	if s.bodyTimeout != bodyReadTimeout {
		t.Fatalf("bodyTimeout = %v, want the package constant", s.bodyTimeout)
	}
	s.bodyTimeout = slow // the production mechanism at test scale
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"tenant\":"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	// The server says why (a 400) and hangs up: ReadAll returns only at
	// EOF or at our own deadline.
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("stalled connection still open after %v: %v (read %q)", time.Since(start), err, reply)
	}
	if d := time.Since(start); d < slow/2 {
		t.Fatalf("connection closed after %v, before the body deadline %v", d, slow)
	}
	if !strings.Contains(string(reply), "400 Bad Request") {
		t.Fatalf("reply to a stalled body = %q, want a 400", reply)
	}

	// The long poll: double the job's work until one run outlives the
	// deadline, so the assertion holds on any host speed.
	for scale := 64; ; scale *= 2 {
		t0 := time.Now()
		code, st, ae := postJob(t, ts, JobRequest{Tenant: "alice", Tree: &TreeSpec{Depth: 2, Work: maxWorkUnits}, WorkScale: scale}, true)
		if code != http.StatusOK || st.Status != "done" {
			t.Fatalf("long poll after %v: status %d, job %+v (%+v); want 200 done", time.Since(t0), code, st, ae)
		}
		if time.Since(t0) > 2*slow {
			break
		}
	}
}

// TestAdmittedJobsStartNoGoroutines: an admitted job runs on one of the
// long-lived runners and starts no goroutine of its own — neither a
// runner nor a context watch — beyond its threads'. The in-flight jobs
// park their roots on a Future while a keeper job holds a worker busy.
func TestAdmittedJobsStartNoGoroutines(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 8
	s := newTestServer(t, cfg)
	var f grt.Future
	var stop atomic.Bool
	keeperUp := make(chan struct{})
	keeper, err := s.rt.Submit(context.Background(), func(t *grt.T) {
		close(keeperUp)
		for !stop.Load() {
			runtime.Gosched()
		}
		f.Set(t, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-keeperUp
	base := runtime.NumGoroutine()

	alice, _ := s.adm.lookup("alice")
	var parked atomic.Int64
	held := runnable{kind: "held", run: func(ctx context.Context, sub workload.Submitter) (jobResult, error) {
		j, err := sub.Submit(ctx, func(t *grt.T) {
			parked.Add(1)
			f.Get(t)
		})
		if err != nil {
			return jobResult{}, err
		}
		_, err = j.Wait()
		return jobResult{}, err
	}}
	jobs := make([]*job, 3*cfg.MaxInflight)
	for i := range jobs {
		jobs[i] = &job{id: fmt.Sprintf("held%d", i), tenant: alice, kind: held.kind, run: held,
			submitAt: time.Now(), state: "pending", done: make(chan struct{})}
		if err := s.adm.enqueue(jobs[i]); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	for parked.Load() < int64(cfg.MaxInflight) {
		runtime.Gosched()
	}
	if grown := runtime.NumGoroutine() - base; grown > cfg.MaxInflight+2 {
		t.Errorf("%d jobs in flight, %d pending: goroutines grew by %d, want at most %d (their root threads)",
			cfg.MaxInflight, len(jobs)-cfg.MaxInflight, grown, cfg.MaxInflight+2)
	}
	stop.Store(true)
	if _, err := keeper.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		<-j.done
		if st := j.status(); st.Status != "done" {
			t.Fatalf("job %d: %+v", i, st)
		}
	}
}

// TestDrainFinishesOrFailsEveryJob: a drain runs every pending and
// in-flight job to completion; an aborted drain cancels the in-flight
// ones, fails the pending ones with ErrShutdown and returns promptly —
// not after the running jobs' natural end — with no goroutine left.
func TestDrainFinishesOrFailsEveryJob(t *testing.T) {
	for _, abort := range []bool{false, true} {
		t.Run(fmt.Sprintf("abort=%v", abort), func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := testConfig()
			cfg.MaxInflight = 2
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			req := JobRequest{Tenant: "alice", Tree: &TreeSpec{Depth: 3, Work: 4}}
			timeout := 30 * time.Second
			if abort {
				// ~16k leaves of ~4M spin iterations each: a minute or
				// more on two workers, unless canceled.
				req = JobRequest{Tenant: "alice", Tree: &TreeSpec{Depth: maxTreeDepth, Work: 1000}, WorkScale: maxWorkScale}
				timeout = 200 * time.Millisecond
			}
			var ids []string
			for i := 0; i < 5; i++ {
				code, st, ae := postJob(t, ts, req, false)
				if code != http.StatusAccepted {
					t.Fatalf("submit %d: %d %+v", i, code, ae)
				}
				ids = append(ids, st.ID)
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			began := time.Now()
			err = s.Close(ctx)
			took := time.Since(began)
			ts.Close()
			if abort != (err != nil) {
				t.Fatalf("Close = %v after %v", err, took)
			}
			if abort && took > 10*time.Second {
				t.Fatalf("aborted drain took %v: it waited for the running jobs", took)
			}
			count := map[string]int{}
			for _, id := range ids {
				s.jmu.Lock()
				st := s.jobs[id].status()
				s.jmu.Unlock()
				count[st.Status]++
				switch {
				case !abort && st.Status != "done":
					t.Errorf("drain left %s %q (%s)", id, st.Status, st.Error)
				case abort && st.Status == "failed" && st.Error != grt.ErrShutdown.Error():
					t.Errorf("aborted drain failed %s with %q, want %q", id, st.Error, grt.ErrShutdown)
				}
			}
			if abort && (count["canceled"] != cfg.MaxInflight || count["failed"] != len(ids)-cfg.MaxInflight) {
				t.Errorf("aborted drain: %v, want %d canceled (in flight) and %d failed (pending)",
					count, cfg.MaxInflight, len(ids)-cfg.MaxInflight)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base+2 { // httptest teardown slack
				if time.Now().After(deadline) {
					t.Fatalf("goroutine leak: base %d, now %d", base, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestFinishedJobKeepsOnlyItsStatus: a finished job drops its compiled
// program and its canceler, and its status still reports every field.
func TestFinishedJobKeepsOnlyItsStatus(t *testing.T) {
	s := newTestServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, st, ae := postJob(t, ts, JobRequest{Tenant: "hog", Tree: &TreeSpec{Depth: 3, Alloc: 64, Work: 2}}, true)
	if code != http.StatusOK || st.Status != "done" {
		t.Fatalf("submit: %d %+v %+v", code, st, ae)
	}
	s.jmu.Lock()
	j := s.jobs[st.ID]
	s.jmu.Unlock()
	j.mu.Lock()
	kept := j.run.run != nil || j.cancelFn != nil
	j.mu.Unlock()
	if kept {
		t.Errorf("finished job %s still holds its program or its canceler", st.ID)
	}
	if got := j.status(); got.Kind != "tree:d3" || got.Cost == 0 || got.Stats == nil ||
		got.Stats.TotalThreads != 15 || got.LatencyMs <= 0 || !reflect.DeepEqual(got, st) {
		t.Errorf("status after finish: %+v, the wait reply was %+v", got, st)
	}
}
