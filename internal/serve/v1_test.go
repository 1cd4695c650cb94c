package serve

// Tests of the v1 production surface: API-key authentication, dynamic
// tenant CRUD (including racing active submits), job cancellation, and
// cost pricing. HTTP paths go through the typed client
// (internal/serve/client) so the client's envelope decoding is exercised
// against the real server.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfdeques"
	"dfdeques/internal/serve/api"
	"dfdeques/internal/serve/client"
	"dfdeques/internal/workload"
)

func authedConfig() Config {
	return Config{
		Runtime: dfdeques.RuntimeConfig{Workers: 2, Sched: dfdeques.SchedDFDeques, K: 1024, Seed: 7},
		Tenants: map[string]TenantConfig{
			"alice": {Weight: 2, APIKey: "alice-key"},
			"open":  {Weight: 1}, // no key: dev-mode tenant
		},
		AdminKey: "root-key",
	}
}

// wantCode asserts err is an *api.Error with the given status and code.
func wantCode(t *testing.T, err error, status int, code api.ErrorCode) *api.Error {
	t.Helper()
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("want *api.Error %d/%s, got %v", status, code, err)
	}
	if ae.Status != status || ae.Code != code {
		t.Fatalf("want %d/%s, got %d/%s (%s)", status, code, ae.Status, ae.Code, ae.Message)
	}
	return ae
}

// TestAuthn covers the key matrix: missing, wrong, bearer, header, admin
// override, revocation via PUT, and the admin-gated tenant listing.
func TestAuthn(t *testing.T) {
	s := newTestServer(t, authedConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()
	job := api.JobRequest{Tenant: "alice", Tree: &api.TreeSpec{Depth: 2, Alloc: 64, Work: 1}}

	anon := client.New(ts.URL)
	if _, err := anon.Submit(ctx, job); err == nil {
		t.Fatalf("missing key accepted")
	} else {
		wantCode(t, err, http.StatusUnauthorized, api.CodeUnauthorized)
	}
	wrong := anon.WithKeys("not-the-key", "")
	if _, err := wrong.Submit(ctx, job); err == nil {
		t.Fatalf("wrong key accepted")
	} else {
		wantCode(t, err, http.StatusUnauthorized, api.CodeUnauthorized)
	}
	// An open tenant needs no key at all.
	if _, err := anon.SubmitWait(ctx, api.JobRequest{Tenant: "open", Tree: &api.TreeSpec{Depth: 1}}); err != nil {
		t.Fatalf("open tenant refused: %v", err)
	}

	// The right key, through both channels.
	alice := anon.WithKeys("alice-key", "")
	st, err := alice.SubmitWait(ctx, job)
	if err != nil || st.Status != "done" {
		t.Fatalf("X-API-Key submit: %v %+v", err, st)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?wait=1",
		strings.NewReader(`{"tenant":"alice","tree":{"depth":1}}`))
	req.Header.Set("Authorization", "Bearer alice-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer submit: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	// The admin key acts for any tenant; job reads need the job owner's
	// key (or admin).
	admin := anon.WithKeys("", "root-key")
	st, err = admin.Submit(ctx, job)
	if err != nil {
		t.Fatalf("admin-as-tenant submit: %v", err)
	}
	if _, err := anon.Job(ctx, st.ID); err == nil {
		t.Fatalf("unauthenticated job read accepted")
	} else {
		wantCode(t, err, http.StatusUnauthorized, api.CodeUnauthorized)
	}
	if _, err := alice.Job(ctx, st.ID); err != nil {
		t.Fatalf("owner job read: %v", err)
	}

	// Tenant listing is admin-gated; a tenant may read its own row.
	if _, err := alice.Tenants(ctx); err == nil {
		t.Fatalf("tenant key listed all tenants")
	} else {
		wantCode(t, err, http.StatusUnauthorized, api.CodeUnauthorized)
	}
	if _, err := admin.Tenants(ctx); err != nil {
		t.Fatalf("admin listing: %v", err)
	}
	if _, err := alice.Tenant(ctx, "alice"); err != nil {
		t.Fatalf("own-row read: %v", err)
	}

	// Revocation: rotate alice's key via PUT; the old key must die.
	if _, err := admin.PutTenant(ctx, "alice", api.TenantConfig{Weight: 2, APIKey: "alice-key-2"}); err != nil {
		t.Fatalf("rotate key: %v", err)
	}
	if _, err := alice.Submit(ctx, job); err == nil {
		t.Fatalf("revoked key accepted")
	} else {
		wantCode(t, err, http.StatusUnauthorized, api.CodeUnauthorized)
	}
	if _, err := anon.WithKeys("alice-key-2", "").SubmitWait(ctx, job); err != nil {
		t.Fatalf("rotated key refused: %v", err)
	}

	// The failures above are all accounted.
	alicet, _ := s.adm.lookup("alice")
	if alicet.rejectedAuth.Load() < 3 || s.authFailures.Load() < 4 {
		t.Fatalf("auth failures unaccounted: tenant=%d server=%d",
			alicet.rejectedAuth.Load(), s.authFailures.Load())
	}
}

// TestTenantCRUD drives the dynamic tenant lifecycle over HTTP: create
// (201), read, update (200, contract swapped live), delete, and the
// error envelope on every miss.
func TestTenantCRUD(t *testing.T) {
	s := newTestServer(t, authedConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()
	admin := client.New(ts.URL).WithKeys("", "root-key")

	// Mutation requires the admin key.
	if _, err := client.New(ts.URL).PutTenant(ctx, "carol", api.TenantConfig{Weight: 1}); err == nil {
		t.Fatalf("unauthenticated PUT accepted")
	} else {
		wantCode(t, err, http.StatusUnauthorized, api.CodeUnauthorized)
	}

	// Create: contract validated by the same rules as static config.
	if _, err := admin.PutTenant(ctx, "carol", api.TenantConfig{MemBudget: 512}); err == nil {
		t.Fatalf("budget < K accepted")
	} else {
		wantCode(t, err, http.StatusBadRequest, api.CodeBadRequest)
	}
	row, err := admin.PutTenant(ctx, "carol", api.TenantConfig{MemBudget: 1 << 20, Weight: 3, APIKey: "carol-key"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if row.Name != "carol" || row.Weight != 3 || row.MemBudget != 1<<20 || row.TraceTag == 0 {
		t.Fatalf("created row wrong: %+v", row)
	}

	carol := client.New(ts.URL).WithKeys("carol-key", "")
	st, err := carol.SubmitWait(ctx, api.JobRequest{Tenant: "carol", Tree: &api.TreeSpec{Depth: 3, Alloc: 128, Work: 1}})
	if err != nil || st.Status != "done" {
		t.Fatalf("new tenant can't run: %v %+v", err, st)
	}

	// Update: weight and budget swap live, counters survive.
	row, err = admin.PutTenant(ctx, "carol", api.TenantConfig{MemBudget: 2 << 20, Weight: 5, APIKey: "carol-key"})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if row.Weight != 5 || row.MemBudget != 2<<20 || row.Completed != 1 {
		t.Fatalf("update lost state: %+v", row)
	}

	// Delete: the row disappears, submissions 404, re-creating starts a
	// fresh trace tag.
	oldTag := row.TraceTag
	if _, err := admin.DeleteTenant(ctx, "carol"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := admin.Tenant(ctx, "carol"); err == nil {
		t.Fatalf("deleted tenant still readable")
	} else {
		wantCode(t, err, http.StatusNotFound, api.CodeUnknownTenant)
	}
	if _, err := carol.Submit(ctx, api.JobRequest{Tenant: "carol", Tree: &api.TreeSpec{Depth: 1}}); err == nil {
		t.Fatalf("submit to deleted tenant accepted")
	} else {
		wantCode(t, err, http.StatusNotFound, api.CodeUnknownTenant)
	}
	if _, err := admin.DeleteTenant(ctx, "carol"); err == nil {
		t.Fatalf("double delete accepted")
	} else {
		wantCode(t, err, http.StatusNotFound, api.CodeUnknownTenant)
	}
	row, err = admin.PutTenant(ctx, "carol", api.TenantConfig{Weight: 1})
	if err != nil || row.TraceTag == oldTag || row.Completed != 0 {
		t.Fatalf("re-create should be fresh: %v %+v", err, row)
	}
}

// TestTenantCRUDRace hammers submissions against a tenant that is
// concurrently created, updated and deleted. Run under -race this pins
// the atomic-swap claim: every response is one of the legal outcomes,
// nothing hangs, nothing leaks, and the drain still settles.
func TestTenantCRUDRace(t *testing.T) {
	s := newTestServer(t, authedConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()
	admin := client.New(ts.URL).WithKeys("", "root-key")
	flux := client.New(ts.URL).WithKeys("flux-key", "")

	deadline := time.Now().Add(500 * time.Millisecond)
	var wg sync.WaitGroup
	var done, gone, other atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				st, err := flux.SubmitWait(ctx, api.JobRequest{Tenant: "flux", Tree: &api.TreeSpec{Depth: 2, Alloc: 64, Work: 1}})
				switch {
				case err == nil && st.Status == "done":
					done.Add(1)
				case err == nil && st.Status == "failed" && strings.Contains(st.Error, "deleted"):
					gone.Add(1) // tenant removed while the job was pending
				case err != nil:
					var ae *api.Error
					if errors.As(err, &ae) &&
						(ae.Code == api.CodeUnknownTenant || ae.Code == api.CodeQueueFull ||
							ae.Code == api.CodeOverBudget || ae.Code == api.CodeCostShed) {
						gone.Add(1)
						continue
					}
					other.Add(1)
					t.Errorf("illegal outcome: %v", err)
					return
				default:
					other.Add(1)
					t.Errorf("illegal status: %+v", st)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if _, err := admin.PutTenant(ctx, "flux", api.TenantConfig{MemBudget: 1 << 20, Weight: 2, APIKey: "flux-key"}); err != nil {
				t.Errorf("PUT flux: %v", err)
				return
			}
			time.Sleep(3 * time.Millisecond)
			if _, err := admin.PutTenant(ctx, "flux", api.TenantConfig{MemBudget: 2 << 20, Weight: 4, APIKey: "flux-key"}); err != nil {
				t.Errorf("update flux: %v", err)
				return
			}
			time.Sleep(3 * time.Millisecond)
			if _, err := admin.DeleteTenant(ctx, "flux"); err != nil {
				var ae *api.Error
				if !errors.As(err, &ae) || ae.Code != api.CodeUnknownTenant {
					t.Errorf("DELETE flux: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("illegal outcomes: %d", other.Load())
	}
	if done.Load() == 0 || gone.Load() == 0 {
		t.Fatalf("race too quiet: done=%d gone=%d (want both sides exercised)", done.Load(), gone.Load())
	}
	waitIdle(t, s)
}

// TestCancelJob covers DELETE /v1/jobs/{id}: canceling a queued job
// removes it before it runs; canceling a running job fires its context
// and classifies the finish as "canceled"; canceling a finished job is
// an idempotent no-op returning the final status.
func TestCancelJob(t *testing.T) {
	cfg := authedConfig()
	cfg.MaxInflight = 1
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()
	alice := client.New(ts.URL).WithKeys("alice-key", "")

	// Park a blocker in the only inflight slot so the HTTP-submitted job
	// is deterministically still pending when the DELETE lands.
	alicet, _ := s.adm.lookup("alice")
	gate := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	if err := s.adm.enqueue(blockingJob(alicet, gate, func() { once.Do(func() { close(running) }) })); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-running

	st, err := alice.Submit(ctx, api.JobRequest{Tenant: "alice", Tree: &api.TreeSpec{Depth: 2}})
	if err != nil || st.Status != "pending" {
		t.Fatalf("submit: %v %+v", err, st)
	}
	// Cancel requires the owner's key.
	if _, err := client.New(ts.URL).CancelJob(ctx, st.ID); err == nil {
		t.Fatalf("unauthenticated cancel accepted")
	} else {
		wantCode(t, err, http.StatusUnauthorized, api.CodeUnauthorized)
	}
	cst, err := alice.CancelJob(ctx, st.ID)
	if err != nil || cst.Status != "canceled" {
		t.Fatalf("pending cancel: %v %+v", err, cst)
	}
	// Idempotent: a second DELETE reports the same final state.
	cst, err = alice.CancelJob(ctx, st.ID)
	if err != nil || cst.Status != "canceled" {
		t.Fatalf("re-cancel: %v %+v", err, cst)
	}
	if _, err := alice.CancelJob(ctx, "j999999"); err == nil {
		t.Fatalf("cancel of unknown job accepted")
	} else {
		wantCode(t, err, http.StatusNotFound, api.CodeUnknownJob)
	}

	// Running cancel: a job parked on its context finishes "canceled"
	// when requestCancel fires the attached canceler.
	ctxJob := &job{
		id: "t-ctx", seq: 990, tenant: alicet, kind: "test", state: "pending",
		done: make(chan struct{}), submitAt: time.Now(),
		run: runnable{kind: "test", run: func(ctx context.Context, sub workload.Submitter) (jobResult, error) {
			<-ctx.Done()
			return jobResult{}, ctx.Err()
		}},
	}
	close(gate) // release the blocker; ctxJob takes the slot
	if err := s.adm.enqueue(ctxJob); err != nil {
		t.Fatalf("ctx job: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ctxJob.stateNow() != "running" {
		if time.Now().After(deadline) {
			t.Fatalf("ctx job never ran")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !s.adm.cancelJob(ctxJob) {
		t.Fatalf("running cancel reported false")
	}
	<-ctxJob.done
	if got := ctxJob.stateNow(); got != "canceled" {
		t.Fatalf("running cancel state: %q", got)
	}
	waitIdle(t, s)
	if alicet.canceled.Load() != 2 {
		t.Fatalf("canceled count: want 2, got %d", alicet.canceled.Load())
	}
}

// TestCostPricing pins the price function: S1 from the parent-first
// serial walk, the runtime's own order on one worker, plus K per nesting
// level.
func TestCostPricing(t *testing.T) {
	// Sequential siblings don't stack serially: peak is one child.
	seq := &SpecNode{Label: "r", Instrs: []SpecInstr{
		{Op: "fork", Child: &SpecNode{Instrs: []SpecInstr{
			{Op: "alloc", N: 600}, {Op: "work", N: 1}, {Op: "free", N: 600}}}},
		{Op: "fork", Child: &SpecNode{Instrs: []SpecInstr{
			{Op: "alloc", N: 500}, {Op: "work", N: 1}, {Op: "free", N: 500}}}},
		{Op: "work", N: 1}, {Op: "join"}, {Op: "join"},
	}}
	run, err := compileSpec(JobRequest{Spec: seq}, 100)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if run.cost != 600+100*1 {
		t.Fatalf("sequential siblings: want %d, got %d", 600+100, run.cost)
	}
	// Nested un-freed allocations stack, and depth multiplies K.
	nest := &SpecNode{Label: "r", Instrs: []SpecInstr{
		{Op: "alloc", N: 100},
		{Op: "fork", Child: &SpecNode{Instrs: []SpecInstr{
			{Op: "alloc", N: 200},
			{Op: "fork", Child: &SpecNode{Instrs: []SpecInstr{
				{Op: "alloc", N: 300}, {Op: "work", N: 1}, {Op: "free", N: 300}}}},
			{Op: "work", N: 1}, {Op: "join"}, {Op: "free", N: 200},
		}}},
		{Op: "work", N: 1}, {Op: "join"}, {Op: "free", N: 100},
	}}
	run, err = compileSpec(JobRequest{Spec: nest}, 100)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if run.cost != 600+100*2 {
		t.Fatalf("nested: want %d, got %d", 600+200, run.cost)
	}
	// The parent runs on to its join before the child runs, so the child's
	// 300 bytes come on top of the parent's 1000 (child-first they would
	// not: 1000 + K).
	asym := &SpecNode{Label: "r", Instrs: []SpecInstr{
		{Op: "fork", Child: &SpecNode{Instrs: []SpecInstr{
			{Op: "alloc", N: 300}, {Op: "free", N: 300}}}},
		{Op: "alloc", N: 1000}, {Op: "join"}, {Op: "free", N: 1000},
	}}
	run, err = compileSpec(JobRequest{Spec: asym}, 100)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if run.cost != 1300+100*1 {
		t.Fatalf("asymmetric fork: want %d, got %d", 1300+100, run.cost)
	}
	// Trees price at leaf size + K·depth (leaves free before siblings).
	runTree, err := compileTree(JobRequest{Tree: &TreeSpec{Depth: 3, Alloc: 128}}, 50)
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	if runTree.cost != 128+50*3 {
		t.Fatalf("tree: want %d, got %d", 128+150, runTree.cost)
	}
	// Scenarios are exempt.
	runSc, err := compileScenario(JobRequest{Scenario: "pipeline", Scale: 1})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if runSc.cost != 0 {
		t.Fatalf("scenario must be cost-exempt, got %d", runSc.cost)
	}
}
