package serve

// TestServeSoak exercises the production-hardened v1 surface the way an
// open deployment would: eight authenticated tenants hammer the service
// concurrently through the typed client for the soak duration — seven
// well-behaved tenants submitting mixed scenario, tree, and spec jobs,
// plus one "hog" whose declared footprints push against its small memory
// budget. Meanwhile a management goroutine churns a ninth "ghost" tenant
// through PUT/submit/cancel/DELETE cycles, and an unauthenticated flood
// hammers keyed tenants without credentials. The soak asserts the
// hardened isolation story end to end:
//
//   - the hog's whales, which can never fit its budget, are shed by
//     cost-based admission (429 cost_shed, before its queue ever fills),
//     while its holders, which do fit, keep being admitted and are never
//     budget-killed;
//   - every unauthenticated request dies with 401 (or 404 for unknown
//     tenants) and is accounted, with zero collateral damage;
//   - tenants added and removed mid-run never wedge admission: their
//     jobs either complete or fail with the tenant-deleted error;
//   - the authenticated well-behaved tenants see zero failures and
//     zero rejections;
//   - metrics stay scrapeable mid-run, the drain finishes cleanly, and
//     no goroutine survives Close.
//
// Durations: ~1s under -short, ~3s by default, DFDSERVE_SOAK_SECS
// overrides for the minutes-long acceptance run (soakDuration):
//
//	DFDSERVE_SOAK_SECS=120 go test ./internal/serve/ -race -run TestServeSoak -v
import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfdeques"
	"dfdeques/internal/serve/api"
	"dfdeques/internal/serve/client"
)

// soakDuration is short under -short, def otherwise, and whatever
// DFDSERVE_SOAK_SECS says when it is set.
func soakDuration(t *testing.T, short, def time.Duration) time.Duration {
	t.Helper()
	if v := os.Getenv("DFDSERVE_SOAK_SECS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs < 1 {
			t.Fatalf("bad DFDSERVE_SOAK_SECS=%q", v)
		}
		return time.Duration(secs) * time.Second
	}
	if testing.Short() {
		return short
	}
	return def
}

func TestServeSoak(t *testing.T) {
	dur := soakDuration(t, 1*time.Second, 3*time.Second)

	baseGoroutines := runtime.NumGoroutine()

	cfg := Config{
		Runtime: dfdeques.RuntimeConfig{
			Workers: runtime.GOMAXPROCS(0),
			Sched:   dfdeques.SchedDFDeques,
			K:       1024,
			Seed:    1,
		},
		Tenants: map[string]TenantConfig{
			"hog": {MemBudget: 16384, Weight: 1, MaxPending: 4, APIKey: "hog-key"},
		},
		AdminKey: "soak-admin",
	}
	wellBehaved := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6"}
	for i, name := range wellBehaved {
		cfg.Tenants[name] = TenantConfig{Weight: 1 + i%3, APIKey: "key-" + name}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	ctx := context.Background()

	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	var submissions, badFailures atomic.Int64
	var hogShed, hogOverBudget, ghostDone, ghostGone, ghostCanceled, floodRejected atomic.Int64

	// Seven well-behaved tenants, two clients each, blocking submits of
	// rotating job shapes under their own API keys. Every response must
	// be a done job — any 4xx/5xx or failed state is collateral damage.
	specProg := &SpecNode{Label: "root", Instrs: []SpecInstr{
		{Op: "alloc", N: 512},
		{Op: "fork", Child: &SpecNode{Label: "kid", Instrs: []SpecInstr{
			{Op: "work", N: 8}, {Op: "alloc", N: 128}, {Op: "free", N: 128},
		}}},
		{Op: "work", N: 8},
		{Op: "join"},
		{Op: "free", N: 512},
	}}
	for gi, name := range wellBehaved {
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(name string, seed int64) {
				defer wg.Done()
				cl := client.New(ts.URL).WithKeys("key-"+name, "")
				rng := rand.New(rand.NewSource(seed))
				for time.Now().Before(deadline) {
					var req api.JobRequest
					req.Tenant = name
					switch rng.Intn(3) {
					case 0:
						req.Scenario, req.Seed, req.Scale = "pipeline", rng.Int63n(1000), 1
					case 1:
						req.Tree = &api.TreeSpec{Depth: 3 + rng.Intn(3), Alloc: 256, Work: 2}
					default:
						req.Spec = specProg
					}
					st, err := cl.SubmitWait(ctx, req)
					submissions.Add(1)
					if err != nil || st.Status != "done" {
						badFailures.Add(1)
						t.Errorf("tenant %s: err %v status %q (%s)", name, err, st.Status, st.Error)
						return
					}
				}
			}(name, int64(gi*2+c))
		}
	}

	// The hog: three clients alternating whales — S1 = 20000 can never
	// fit the 16384-byte budget, so the cost gate sheds them up front —
	// and "holders" priced at 6000, two of which fit at once: a third
	// overlapping one bounces on the held heap and reserved cost.
	holder := &SpecNode{Label: "holder", Instrs: []SpecInstr{
		{Op: "alloc", N: 6000}, {Op: "work", N: 1000000}, {Op: "free", N: 6000},
	}}
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl := client.New(ts.URL).WithKeys("hog-key", "")
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				req := api.JobRequest{Tenant: "hog"}
				if rng.Intn(2) == 0 {
					req.Spec = holder
				} else {
					req.Tree = &api.TreeSpec{Depth: 0, Alloc: 20000}
				}
				st, err := cl.SubmitWait(ctx, req)
				submissions.Add(1)
				var ae *api.Error
				switch {
				case errors.As(err, &ae) && ae.Code == api.CodeCostShed:
					hogShed.Add(1)
					time.Sleep(time.Millisecond)
				case errors.As(err, &ae) && (ae.Code == api.CodeOverBudget || ae.Code == api.CodeQueueFull):
					hogOverBudget.Add(1)
					time.Sleep(time.Millisecond)
				case err == nil && (st.Status == "done" || st.Status == "failed"):
					// Holders complete; a failed one would be a budget
					// kill, which the accounting check below refuses.
				default:
					t.Errorf("hog: unexpected outcome err=%v st=%+v", err, st)
					return
				}
			}
		}(int64(100 + c))
	}

	// Tenant CRUD churn racing live traffic: a ghost tenant is created,
	// exercised (including a submit-then-cancel), and deleted, over and
	// over. Deletions race the ghost's own in-flight jobs — those must
	// finish as done, canceled, or tenant-deleted, never wedge.
	wg.Add(1)
	go func() {
		defer wg.Done()
		admin := client.New(ts.URL).WithKeys("", "soak-admin")
		ghost := client.New(ts.URL).WithKeys("ghost-key", "")
		for time.Now().Before(deadline) {
			if _, err := admin.PutTenant(ctx, "ghost", api.TenantConfig{MemBudget: 1 << 20, Weight: 2, APIKey: "ghost-key"}); err != nil {
				t.Errorf("PUT ghost: %v", err)
				return
			}
			// One async submit that the DELETE below may orphan, one
			// cancel, one blocking submit.
			if st, err := ghost.Submit(ctx, api.JobRequest{Tenant: "ghost", Tree: &api.TreeSpec{Depth: 4, Alloc: 128, Work: 200000}}); err == nil {
				if _, err := ghost.CancelJob(ctx, st.ID); err == nil {
					// The cancel of a running job lands asynchronously
					// (the poison has to unwind its threads); poll
					// briefly for the classified state.
					for i := 0; i < 25; i++ {
						cur, err := ghost.Job(ctx, st.ID)
						if err != nil || cur.Status == "done" || cur.Status == "failed" {
							break
						}
						if cur.Status == "canceled" {
							ghostCanceled.Add(1)
							break
						}
						time.Sleep(2 * time.Millisecond)
					}
				}
			}
			st, err := ghost.SubmitWait(ctx, api.JobRequest{Tenant: "ghost", Spec: specProg})
			submissions.Add(1)
			var ae *api.Error
			switch {
			case err == nil && st.Status == "done":
				ghostDone.Add(1)
			case err == nil && (st.Status == "failed" || st.Status == "canceled"):
				ghostGone.Add(1)
			case errors.As(err, &ae) && ae.Code == api.CodeUnknownTenant:
				ghostGone.Add(1)
			default:
				t.Errorf("ghost: unexpected outcome err=%v st=%+v", err, st)
				return
			}
			if _, err := admin.DeleteTenant(ctx, "ghost"); err != nil {
				var ae *api.Error
				if !errors.As(err, &ae) || ae.Code != api.CodeUnknownTenant {
					t.Errorf("DELETE ghost: %v", err)
					return
				}
			}
		}
	}()

	// The unauthenticated flood: no key, wrong keys, and unknown tenant
	// names. Every request must die with 401 unauthorized (or 404 for
	// the unknown tenant), never anything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		anon := client.New(ts.URL)
		wrong := client.New(ts.URL).WithKeys("stolen-key", "")
		rng := rand.New(rand.NewSource(999))
		for time.Now().Before(deadline) {
			var err error
			wantStatus, wantCode := http.StatusUnauthorized, api.CodeUnauthorized
			switch rng.Intn(3) {
			case 0:
				_, err = anon.Submit(ctx, api.JobRequest{Tenant: "t0", Tree: &api.TreeSpec{Depth: 1}})
			case 1:
				_, err = wrong.Submit(ctx, api.JobRequest{Tenant: wellBehaved[rng.Intn(len(wellBehaved))], Tree: &api.TreeSpec{Depth: 1}})
			default:
				_, err = wrong.Submit(ctx, api.JobRequest{Tenant: "nobody", Tree: &api.TreeSpec{Depth: 1}})
				wantStatus, wantCode = http.StatusNotFound, api.CodeUnknownTenant
			}
			var ae *api.Error
			if !errors.As(err, &ae) || ae.Status != wantStatus || ae.Code != wantCode {
				t.Errorf("flood: want %d/%s, got %v", wantStatus, wantCode, err)
				return
			}
			floodRejected.Add(1)
		}
	}()

	// A scraper keeps /metrics and /healthz hot mid-run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := client.New(ts.URL)
		for time.Now().Before(deadline) {
			text, err := cl.Metrics(ctx)
			if err == nil {
				if !strings.Contains(text, "dfd_dispatches_total") ||
					!strings.Contains(text, `dfdserve_budget_live_bytes{tenant="hog"}`) {
					t.Errorf("metrics scrape incomplete")
					return
				}
			}
			if err := cl.Healthz(ctx); err != nil {
				t.Errorf("healthz mid-run: %v", err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	wg.Wait()

	// Snapshot tenant accounting before shutdown (admin surface).
	admin := client.New(ts.URL).WithKeys("", "soak-admin")
	rows, err := admin.Tenants(ctx)
	if err != nil {
		t.Fatalf("GET /v1/tenants: %v", err)
	}
	tens := make(map[string]api.TenantStatus, len(rows))
	for _, st := range rows {
		tens[st.Name] = st
	}

	cctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(cctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ts.Close()

	if badFailures.Load() > 0 {
		t.Fatalf("well-behaved tenants saw %d failures", badFailures.Load())
	}
	hog := tens["hog"]
	t.Logf("soak %v: %d submissions, hog shed=%d overBudget=%d completed=%d heapHW=%d, ghost done=%d gone=%d canceled=%d, flood=%d",
		dur, submissions.Load(), hogShed.Load(), hogOverBudget.Load(), hog.Completed, hog.HeapHW,
		ghostDone.Load(), ghostGone.Load(), ghostCanceled.Load(), floodRejected.Load())
	if submissions.Load() < 100 {
		t.Fatalf("soak too quiet: only %d submissions", submissions.Load())
	}
	if hogShed.Load() == 0 {
		t.Fatalf("hog was never cost-shed (429 cost_shed)")
	}
	if floodRejected.Load() == 0 {
		t.Fatalf("the unauthenticated flood never ran")
	}
	if ghostDone.Load() == 0 {
		t.Fatalf("ghost tenant never completed a job between CRUD cycles")
	}
	if ghostCanceled.Load() == 0 {
		t.Fatalf("no ghost job was ever observed canceled")
	}

	if hog.RejectedCost == 0 {
		t.Fatalf("hog cost shedding not accounted: %+v", hog)
	}
	if hog.RejectedQueue > hog.RejectedCost {
		t.Fatalf("shedding should act before the queue fills: queue=%d cost=%d",
			hog.RejectedQueue, hog.RejectedCost)
	}
	if hog.HeapLive != 0 {
		t.Fatalf("hog budget did not settle: %+v", hog)
	}
	// The whales' refusals never lock the hog out of what fits: its
	// holders keep being admitted, and none of them is budget-killed.
	if hog.Completed < 5 {
		t.Fatalf("hog's in-budget holders were starved: only %d completed (%+v)", hog.Completed, hog)
	}
	if hog.BudgetKills != 0 || hog.Failed != 0 {
		t.Fatalf("a priced hog job was budget-killed: %+v", hog)
	}
	for _, name := range wellBehaved {
		st := tens[name]
		if st.Failed != 0 || st.Canceled != 0 || st.RejectedQueue != 0 || st.RejectedBudget != 0 || st.RejectedCost != 0 {
			t.Fatalf("tenant %s was collateral damage: %+v", name, st)
		}
		if st.Completed == 0 {
			t.Fatalf("tenant %s starved: %+v", name, st)
		}
		// The flood aimed wrong keys at these tenants; the hits must be
		// accounted as auth rejections, not anything that ran.
	}

	// Zero goroutine leaks after the drain.
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak: base %d, now %d", baseGoroutines, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeSoakSubmitMix is the request mix that used to kill the process
// (ROADMAP 1a), at the DEFAULT MaxInflight: 2 workers, K=4096, four
// unbudgeted keyless tenants, two closed-loop clients posting depth-4
// alloc:128 trees with ?wait=1, so nearly every Submit injects a root
// into an R whose deques another job's owner is working. Every job must
// come back done. The acceptance run is ten minutes under the race
// detector:
//
//	DFDSERVE_SOAK_SECS=600 go test ./internal/serve/ -race -run TestServeSoakSubmitMix -v
func TestServeSoakSubmitMix(t *testing.T) {
	dur := soakDuration(t, 2*time.Second, 4*time.Second)
	cfg := Config{
		Runtime: dfdeques.RuntimeConfig{Workers: 2, Sched: dfdeques.SchedDFDeques, K: 4096, Seed: 1},
		Tenants: map[string]TenantConfig{"t0": {Weight: 1}, "t1": {Weight: 1}, "t2": {Weight: 1}, "t3": {Weight: 1}},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx := context.Background()
	deadline := time.Now().Add(dur)
	var jobs atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(ts.URL)
			for i := c; time.Now().Before(deadline); i++ {
				st, err := cl.SubmitWait(ctx, api.JobRequest{
					Tenant: "t" + strconv.Itoa(i%4),
					Tree:   &api.TreeSpec{Depth: 4, Alloc: 128, Work: 2},
				})
				if err != nil || st.Status != "done" {
					t.Errorf("client %d job %d: err %v status %q (%s)", c, i, err, st.Status, st.Error)
					return
				}
				jobs.Add(1)
			}
		}(c)
	}
	wg.Wait()

	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Close(cctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	t.Logf("submit mix %v at default MaxInflight: %d jobs, all done", dur, jobs.Load())
	if jobs.Load() < 100 {
		t.Fatalf("mix too quiet: only %d jobs", jobs.Load())
	}
}
