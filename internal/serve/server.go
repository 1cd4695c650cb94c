package serve

// The v1 HTTP surface and server lifecycle.
//
//	POST   /v1/jobs          submit a JobRequest; ?wait=1 blocks for the result
//	GET    /v1/jobs/{id}     poll one job
//	DELETE /v1/jobs/{id}     cancel one job (pending or running)
//	GET    /v1/tenants       per-tenant accounting snapshot (admin)
//	GET    /v1/tenants/{id}  one tenant's accounting
//	PUT    /v1/tenants/{id}  create or update a tenant contract (admin)
//	DELETE /v1/tenants/{id}  remove a tenant (admin)
//	GET    /metrics          Prometheus text exposition
//	GET    /healthz          200 "ok", 503 "draining" once Close begins
//
// Every non-2xx response from a /v1 route is the unified api.ErrorBody
// envelope with a typed code. Job routes authenticate with the tenant's
// API key (X-API-Key or bearer); tenant management with the admin key.
//
// Close is the SIGTERM path: flip /healthz, stop admission, run pending
// and in-flight jobs down (or abort them when the context expires), then
// Shutdown the runtime — afterwards no server goroutine survives.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dfdeques/internal/grt"
	"dfdeques/internal/rtrace"
	"dfdeques/internal/serve/api"
)

// Wire types re-exported from the api package, so embedders of serve
// keep their existing names.
type (
	// JobStatus is the wire form of one job's state.
	JobStatus = api.JobStatus
	// TenantStatus is the wire form of one tenant's accounting.
	TenantStatus = api.TenantStatus
)

// Server is a multi-tenant job service over one shared runtime.
type Server struct {
	cfg      Config
	rt       *grt.Runtime
	counters *rtrace.Counters
	adm      *admission
	mux      *http.ServeMux
	start    time.Time

	bodyTimeout time.Duration // bodyReadTimeout; a field so tests run at their own scale

	draining  atomic.Bool
	closeOnce sync.Once
	closeErr  error

	authFailures   atomic.Int64 // requests refused 401 (any route)
	unknownTenants atomic.Int64 // submissions naming a non-tenant

	jmu    sync.Mutex
	jobs   map[string]*job
	retire []string // completed-job eviction order
	jobIDs atomic.Int64
}

// New validates cfg and starts the shared runtime (warm workers) and the
// admission dispatcher. Callers must eventually Close.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		counters: rtrace.NewCounters(),
		jobs:     make(map[string]*job),
		start:    time.Now(),

		bodyTimeout: bodyReadTimeout,
	}
	// The runtime probe is the server's live counters teed with whatever
	// recorder the caller configured.
	rcfg := cfg.Runtime
	probe := rtrace.Tee(s.counters, rcfg.Probe)
	rt, err := grt.New(grt.Config{
		Workers: rcfg.Workers, Sched: rcfg.Sched, K: rcfg.K, Seed: rcfg.Seed,
		MeasureContention: rcfg.MeasureContention, Probe: probe,
	})
	if err != nil {
		return nil, err
	}
	s.rt = rt
	s.adm = newAdmission(rt, cfg)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	s.mux.HandleFunc("GET /v1/tenants/{id}", s.handleTenantGet)
	s.mux.HandleFunc("PUT /v1/tenants/{id}", s.handleTenantPut)
	s.mux.HandleFunc("DELETE /v1/tenants/{id}", s.handleTenantDelete)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the server's HTTP handler (for http.Server or tests).
func (s *Server) Handler() http.Handler { return s.mux }

// Close gracefully drains the server: /healthz flips to draining, new
// submissions are refused, pending and in-flight jobs run to completion — unless ctx expires first, in which case they
// are aborted (pending fail with ErrShutdown, running jobs are poisoned)
// — and the runtime is shut down with zero goroutines left. Idempotent;
// returns ctx's error when the drain was aborted.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		err := s.adm.drain(ctx)
		if serr := s.rt.Shutdown(context.Background()); serr != nil && err == nil {
			err = serr
		}
		s.closeErr = err
	})
	return s.closeErr
}

// ---- envelope -------------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr emits the unified v1 error envelope; 429s carry Retry-After.
func writeErr(w http.ResponseWriter, status int, code api.ErrorCode, msg, tenant, jobID string) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, api.ErrorBody{Error: api.ErrorDetail{
		Code: code, Message: msg, Tenant: tenant, JobID: jobID,
	}})
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Tenant: j.tenant.name, Kind: j.kind, Status: j.state,
		Cost: j.cost, Checksum: j.result.Checksum, Stats: j.result.Stats,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if errors.Is(j.err, grt.ErrUncoveredFree) {
		st.Code = api.CodeUncoveredFree
	}
	if !j.finishAt.IsZero() {
		st.LatencyMs = float64(j.finishAt.Sub(j.submitAt)) / float64(time.Millisecond)
	}
	return st
}

// bodyReadTimeout bounds how long a client may take to deliver a request
// body (dfdserve bounds the request line and idle connections itself).
const bodyReadTimeout = 10 * time.Second

// decodeBody reads one JSON request body, bounded in size by MaxBodyBytes
// and in time by a read deadline. The deadline is cleared once the value
// is in, so it bounds neither a ?wait=1 long poll nor net/http's read of
// what trails the value (a chunked body's terminator) when the handler
// returns — failing that read would cost the connection its keep-alive
// reuse. On failure it stays armed: the drain of whatever a stalled
// client still owes then fails at once and the connection closes instead
// of pinning the handler.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	// SetReadDeadline fails only on a ResponseWriter without deadlines
	// (httptest's recorder), which is then served unbounded as before.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(s.bodyTimeout))
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(v)
	if err == nil {
		_ = rc.SetReadDeadline(time.Time{})
	}
	return err
}

// ---- job handlers ---------------------------------------------------------

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining", "", "")
		return
	}
	var req JobRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: "+err.Error(), "", "")
		return
	}
	t, ok := s.adm.lookup(req.Tenant)
	if !ok {
		s.unknownTenants.Add(1)
		writeErr(w, http.StatusNotFound, api.CodeUnknownTenant,
			fmt.Sprintf("tenant %q is not configured", req.Tenant), req.Tenant, "")
		return
	}
	if !s.authTenant(r, t) {
		t.rejectedAuth.Add(1)
		s.authFailures.Add(1)
		writeErr(w, http.StatusUnauthorized, api.CodeUnauthorized,
			"missing or invalid API key", req.Tenant, "")
		return
	}
	run, err := compile(req, s.cfg.Runtime.K)
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "invalid job: "+err.Error(), req.Tenant, "")
		return
	}
	seq := s.jobIDs.Add(1)
	j := &job{
		id:       fmt.Sprintf("j%06d", seq),
		seq:      seq,
		tenant:   t,
		kind:     run.kind,
		run:      run,
		cost:     run.cost,
		submitAt: time.Now(),
		state:    "pending",
		done:     make(chan struct{}),
	}
	if err := s.adm.enqueue(j); err != nil {
		switch {
		case errors.Is(err, errDraining):
			writeErr(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining", req.Tenant, "")
		case errors.Is(err, errTenantGone):
			s.unknownTenants.Add(1)
			writeErr(w, http.StatusNotFound, api.CodeUnknownTenant,
				fmt.Sprintf("tenant %q was deleted", req.Tenant), req.Tenant, "")
		case errors.Is(err, errQueueFull):
			writeErr(w, http.StatusTooManyRequests, api.CodeQueueFull, "pending queue full", req.Tenant, "")
		case errors.Is(err, errOverBudget):
			writeErr(w, http.StatusTooManyRequests, api.CodeOverBudget,
				"live heap has reached the memory budget", req.Tenant, "")
		case errors.Is(err, errOverCost):
			writeErr(w, http.StatusTooManyRequests, api.CodeCostShed,
				fmt.Sprintf("predicted job cost %d exceeds what is left of the memory budget", j.cost), req.Tenant, "")
		default:
			writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error(), req.Tenant, "")
		}
		return
	}
	s.registerJob(j)

	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
			writeJSON(w, http.StatusOK, j.status())
		case <-r.Context().Done():
			writeJSON(w, http.StatusRequestTimeout, j.status())
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// lookupJob resolves and authenticates a job route; on failure it has
// already written the envelope and returns nil.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.jmu.Lock()
	j, ok := s.jobs[id]
	s.jmu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, api.CodeUnknownJob, "no such job", "", id)
		return nil
	}
	if !s.authTenant(r, j.tenant) {
		j.tenant.rejectedAuth.Add(1)
		s.authFailures.Add(1)
		writeErr(w, http.StatusUnauthorized, api.CodeUnauthorized,
			"missing or invalid API key", j.tenant.name, id)
		return nil
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleCancelJob (DELETE /v1/jobs/{id}) cancels a pending or running
// job. Idempotent: canceling a finished (or already-canceled) job
// returns its final status unchanged.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	s.adm.cancelJob(j)
	writeJSON(w, http.StatusOK, j.status())
}

// ---- tenant status --------------------------------------------------------

func (s *Server) tenantStatus(t *tenant) TenantStatus {
	weight, pending, reserved := s.adm.tenantShape(t)
	return TenantStatus{
		Name: t.name, Weight: weight, MemBudget: t.budget.Limit(),
		TraceTag: t.tag, ReservedCost: reserved,
		HeapLive: t.budget.HeapLive(), HeapHW: t.budget.HeapHW(),
		Pending:   pending,
		Submitted: t.submitted.Load(), Admitted: t.admitted.Load(),
		Completed: t.completed.Load(), Failed: t.failed.Load(),
		Canceled:      t.canceled.Load(),
		RejectedQueue: t.rejectedQueue.Load(), RejectedBudget: t.rejectedBudget.Load(),
		RejectedCost: t.rejectedCost.Load(), RejectedAuth: t.rejectedAuth.Load(),
		BudgetKills: t.budget.Kills(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// registerJob makes a job pollable, evicting the oldest completed jobs
// past the retention bound.
func (s *Server) registerJob(j *job) {
	s.jmu.Lock()
	s.jobs[j.id] = j
	s.retire = append(s.retire, j.id)
	for len(s.retire) > s.cfg.RetainJobs {
		oldest := s.retire[0]
		if old, ok := s.jobs[oldest]; ok {
			select {
			case <-old.done:
			default:
				// Still pending or running; retention never drops a live
				// job (the queue bound caps how many these can be).
				s.jmu.Unlock()
				return
			}
			delete(s.jobs, oldest)
		}
		s.retire = s.retire[1:]
	}
	s.jmu.Unlock()
}
