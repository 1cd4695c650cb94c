package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dfdeques/internal/serve/api"
)

// Frees a program does not cover: a job that frees bytes it does not hold
// would hand its tenant's budget credit, raising the limit for the
// tenant's other jobs. The runtime refuses such a free and fails the job.

// specJob is a one-thread spec job of the given instructions for tenant.
func specJob(tenant string, instrs ...SpecInstr) JobRequest {
	return JobRequest{Tenant: tenant, Spec: &SpecNode{Label: "root", Instrs: instrs}}
}

// TestUncoveredFreeFailsTheJob: `free 1 GiB; alloc 1 MiB; work 1000`
// prices at K (its serial high-water is 0) and is admitted, but the free
// takes the job's live heap below zero: the job fails with
// uncovered_free, and the tenant's balance never leaves zero.
func TestUncoveredFreeFailsTheJob(t *testing.T) {
	s := newTestServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st, ae := postJob(t, ts, specJob("hog",
		SpecInstr{Op: "free", N: 1 << 30}, SpecInstr{Op: "alloc", N: 1 << 20}, SpecInstr{Op: "work", N: 1000}), true)
	if code != http.StatusOK {
		t.Fatalf("want the job admitted (200), got %d (%+v)", code, ae)
	}
	if st.Status != "failed" || st.Code != api.CodeUncoveredFree {
		t.Fatalf("want failed with %s, got %+v", api.CodeUncoveredFree, st)
	}
	if st.Stats != nil && st.Stats.HeapHW > 0 {
		t.Errorf("the refused free still let the job allocate: HeapHW %d", st.Stats.HeapHW)
	}
	hog := getTenants(t, ts)["hog"]
	if hog.HeapLive != 0 || hog.BudgetKills != 0 || hog.Failed != 1 {
		t.Errorf("hog: heap live %d, budget kills %d, failed %d: want 0, 0, 1", hog.HeapLive, hog.BudgetKills, hog.Failed)
	}
}

// TestEarlyFreeLendsNoBudget: a whale of 16 MiB is shed at admission on
// hog's 8 KiB budget (the control). A same-tenant job that frees 1 GiB
// first would, while in flight, have made room for it: the whale was
// admitted and ran to done. The free is refused, the lender fails, and
// the whale is shed as before.
func TestEarlyFreeLendsNoBudget(t *testing.T) {
	s := newTestServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	whale := specJob("hog", SpecInstr{Op: "alloc", N: 16 << 20}, SpecInstr{Op: "work", N: 10}, SpecInstr{Op: "free", N: 16 << 20})
	shed := func(when string) {
		t.Helper()
		code, st, ae := postJob(t, ts, whale, true)
		if code != http.StatusTooManyRequests || ae.Code != api.CodeCostShed {
			t.Fatalf("%s: want the whale shed with 429 cost_shed, got %d (%+v, %+v)", when, code, ae, st)
		}
	}
	shed("before the lender")

	code, lender, ae := postJob(t, ts, specJob("hog",
		SpecInstr{Op: "free", N: 1 << 30}, SpecInstr{Op: "work", N: 1 << 18}, SpecInstr{Op: "alloc", N: 1 << 30}), false)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("lender: want it admitted, got %d (%+v)", code, ae)
	}
	// Wait until the lender has run its free: it has failed, or, were the
	// free applied, the tenant's balance has gone below zero.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getJob(t, ts, lender.ID)
		hog := getTenants(t, ts)["hog"]
		if hog.HeapLive < 0 {
			t.Errorf("hog's heap live went to %d: the free lent the budget credit", hog.HeapLive)
			break
		}
		if st.Status == "failed" {
			if st.Code != api.CodeUncoveredFree {
				t.Errorf("lender failed with %+v, want %s", st, api.CodeUncoveredFree)
			}
			break
		}
		if st.Status == "done" || time.Now().After(deadline) {
			t.Fatalf("lender: %+v, want it failed at its free", st)
		}
		time.Sleep(time.Millisecond)
	}
	shed("after the lender")
}

// getJob is GET /v1/jobs/{id}.
func getJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return st
}
