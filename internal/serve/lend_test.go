package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"dfdeques/internal/serve/api"
)

// Frees a program does not cover: a job that frees bytes it does not hold
// would hand its tenant's budget credit, raising the limit for the
// tenant's other jobs. dag.Validate refuses such a program inside compile,
// so it is a 400 before it reaches admission or the runtime.

// specJob is a one-thread spec job of the given instructions for tenant.
func specJob(tenant string, instrs ...SpecInstr) JobRequest {
	return JobRequest{Tenant: tenant, Spec: &SpecNode{Label: "root", Instrs: instrs}}
}

// refused posts req and fails unless it is a 400 bad_request.
func refused(t *testing.T, ts *httptest.Server, what string, req JobRequest) {
	t.Helper()
	code, st, ae := postJob(t, ts, req, false)
	if code != http.StatusBadRequest || ae.Code != api.CodeBadRequest {
		t.Fatalf("%s: want 400 %s, got %d (%+v, %+v)", what, api.CodeBadRequest, code, ae, st)
	}
}

// TestUncoveredFreeFailsTheJob: `free 1 GiB; alloc 1 MiB; work 1000`
// prices at K (its serial high-water is 0), but its free covers nothing:
// the job is refused with 400 bad_request, and the tenant runs and owes
// nothing.
func TestUncoveredFreeFailsTheJob(t *testing.T) {
	s := newTestServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	refused(t, ts, "free before alloc", specJob("hog",
		SpecInstr{Op: "free", N: 1 << 30}, SpecInstr{Op: "alloc", N: 1 << 20}, SpecInstr{Op: "work", N: 1000}))
	hog := getTenants(t, ts)["hog"]
	if hog.HeapLive != 0 || hog.BudgetKills != 0 || hog.Failed != 0 || hog.Completed != 0 {
		t.Errorf("hog: heap live %d, budget kills %d, failed %d, completed %d: want all 0",
			hog.HeapLive, hog.BudgetKills, hog.Failed, hog.Completed)
	}
}

// TestEarlyFreeLendsNoBudget: a whale of 16 MiB is shed at admission on
// hog's 8 KiB budget (the control). A same-tenant job that frees 1 GiB
// first would, while in flight, have made room for it: the whale was
// admitted and ran to done. The lender is refused at the door, and the
// whale is shed as before.
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
	refused(t, ts, "lender", specJob("hog",
		SpecInstr{Op: "free", N: 1 << 30}, SpecInstr{Op: "work", N: 1 << 18}, SpecInstr{Op: "alloc", N: 1 << 30}))
	if hog := getTenants(t, ts)["hog"]; hog.HeapLive != 0 {
		t.Errorf("hog's heap live is %d after the refused lender, want 0", hog.HeapLive)
	}
	shed("after the lender")
}
