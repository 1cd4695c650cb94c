package serve

// The tenant-management surface: dynamic CRUD over the live tenant
// table. PUT creates or updates a contract — budget, weight, queue
// bound, API key — atomically with respect to concurrent submissions
// (one critical section in admission); DELETE removes the tenant, fails
// its queued jobs, and lets its running jobs finish against the orphaned
// budget. Listing and mutation require the admin key; a tenant may read
// its own row with its own key.

import (
	"net/http"

	"dfdeques/internal/serve/api"
)

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(r) {
		s.authFailures.Add(1)
		writeErr(w, http.StatusUnauthorized, api.CodeUnauthorized, "admin key required", "", "")
		return
	}
	rows := s.adm.snapshot()
	out := make([]TenantStatus, 0, len(rows))
	for _, t := range rows {
		out = append(out, s.tenantStatus(t))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	t, ok := s.adm.lookup(name)
	if !ok {
		writeErr(w, http.StatusNotFound, api.CodeUnknownTenant, "no such tenant", name, "")
		return
	}
	if !s.authTenant(r, t) {
		t.rejectedAuth.Add(1)
		s.authFailures.Add(1)
		writeErr(w, http.StatusUnauthorized, api.CodeUnauthorized, "missing or invalid API key", name, "")
		return
	}
	writeJSON(w, http.StatusOK, s.tenantStatus(t))
}

// handleTenantPut (PUT /v1/tenants/{id}) creates (201) or updates (200)
// a tenant contract. The body is an api.TenantConfig, validated by the
// same rules as static configuration.
func (s *Server) handleTenantPut(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(r) {
		s.authFailures.Add(1)
		writeErr(w, http.StatusUnauthorized, api.CodeUnauthorized, "admin key required", "", "")
		return
	}
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining", "", "")
		return
	}
	name := r.PathValue("id")
	var tc TenantConfig
	if err := s.decodeBody(w, r, &tc); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: "+err.Error(), name, "")
		return
	}
	if err := validateTenant(name, tc, s.cfg.Runtime.K); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error(), name, "")
		return
	}
	t, created := s.adm.upsertTenant(name, tc)
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, s.tenantStatus(t))
}

// handleTenantDelete (DELETE /v1/tenants/{id}) removes a tenant. Its
// pending jobs fail; running jobs finish. Returns the tenant's final
// accounting row.
func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(r) {
		s.authFailures.Add(1)
		writeErr(w, http.StatusUnauthorized, api.CodeUnauthorized, "admin key required", "", "")
		return
	}
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining", "", "")
		return
	}
	name := r.PathValue("id")
	t := s.adm.removeTenant(name)
	if t == nil {
		writeErr(w, http.StatusNotFound, api.CodeUnknownTenant, "no such tenant", name, "")
		return
	}
	writeJSON(w, http.StatusOK, s.tenantStatus(t))
}
