// Package serve is the networked serving layer over the runtime: an
// HTTP/JSON facade that accepts workload-DAG job submissions from many
// tenants, runs them on one shared warm grt.Runtime, and returns per-job
// results and stats. It is multi-tenant by construction:
//
//   - Memory isolation: each tenant gets a grt.Budget — the paper's
//     per-steal threshold K bounds any one thread's allocation burst
//     (the S1 + O(K·p·D) space bound), the budget caps the tenant's
//     total concurrently-live heap across all of its jobs, and the job
//     whose allocation crosses the line dies with ErrBudget.
//   - Weighted-fair admission: pending jobs queue per tenant and a
//     start-time-fair dispatcher interleaves tenants by Weight (virtual
//     finish tags); admitted roots enter the scheduler through
//     policy.Inject at back-of-priority order, so admission order is
//     execution-priority order among job roots (Lemma 3.1 survives).
//   - Backpressure: a tenant whose pending queue is full, whose live
//     heap has reached its budget, or whose job's predicted cost does
//     not fit what is left of the budget, gets HTTP 429; other tenants
//     are unaffected.
//
// Live metrics come from an rtrace.Counters probe (the Summarize schema,
// scrapeable mid-run) exposed in Prometheus text form at /metrics, and
// /healthz flips to 503 during the graceful drain Close performs (stop
// admission → run down pending and in-flight jobs → Shutdown the
// runtime, zero goroutines left).
package serve

import (
	"fmt"

	"dfdeques"
	"dfdeques/internal/serve/api"
)

// Defaults for the zero values of Config fields.
const (
	DefaultMaxPending   = 64
	DefaultMaxBodyBytes = 1 << 20
	DefaultRetainJobs   = 4096
)

// TenantConfig is one tenant's isolation contract — the api wire type,
// shared with PUT /v1/tenants/{id} so static config and dynamic CRUD
// speak the same schema.
type TenantConfig = api.TenantConfig

// Config configures a Server. The zero value of every field except
// Tenants is usable.
type Config struct {
	// Runtime configures the shared scheduler the jobs run on. Its Probe
	// field may carry a user recorder; the server tees its own live
	// counters alongside.
	Runtime dfdeques.RuntimeConfig
	// Tenants maps tenant name → contract; at least one is required
	// (every submission names its tenant).
	Tenants map[string]TenantConfig
	// MaxInflight bounds concurrently running jobs across all tenants,
	// and is the number of runner goroutines that run them; 0 means
	// 4 × workers.
	MaxInflight int
	// MaxBodyBytes bounds a submission's JSON body; 0 means 1 MiB.
	MaxBodyBytes int64
	// RetainJobs bounds how many completed jobs stay pollable at
	// /v1/jobs/{id}; the oldest are evicted first. 0 means 4096.
	RetainJobs int
	// AdminKey, when non-empty, is required (api.HeaderAdminKey) on the
	// tenant-management surface (PUT/DELETE /v1/tenants/{id} and the
	// tenant listings) and is accepted anywhere a tenant key is. Empty
	// leaves management open — dev mode only.
	AdminKey string
}

// ConfigError describes an invalid serving configuration field.
type ConfigError struct {
	Tenant string // "" for server-wide fields
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("serve: invalid Tenants[%q].%s: %s", e.Tenant, e.Field, e.Reason)
	}
	return fmt.Sprintf("serve: invalid %s: %s", e.Field, e.Reason)
}

// Validate reports the first configuration mistake: a *ConfigError for
// serving fields, or the runtime's own *dfdeques.ConfigError passed
// through for Runtime fields.
func (c Config) Validate() error {
	if err := c.Runtime.Validate(); err != nil {
		return err
	}
	if len(c.Tenants) == 0 {
		return &ConfigError{Field: "Tenants", Reason: "at least one tenant is required"}
	}
	for name, tc := range c.Tenants {
		if err := validateTenant(name, tc, c.Runtime.K); err != nil {
			return err
		}
	}
	if c.MaxInflight < 0 {
		return &ConfigError{Field: "MaxInflight", Reason: fmt.Sprintf("must be >= 0 (0 means 4 x workers), got %d", c.MaxInflight)}
	}
	if c.MaxBodyBytes < 0 {
		return &ConfigError{Field: "MaxBodyBytes", Reason: fmt.Sprintf("must be >= 0, got %d", c.MaxBodyBytes)}
	}
	if c.RetainJobs < 0 {
		return &ConfigError{Field: "RetainJobs", Reason: fmt.Sprintf("must be >= 0, got %d", c.RetainJobs)}
	}
	return nil
}

// validateTenant checks one tenant contract against the runtime's K —
// shared by static Config validation and the dynamic PUT /v1/tenants
// path so both reject the same shapes.
func validateTenant(name string, tc TenantConfig, k int64) error {
	if name == "" {
		return &ConfigError{Field: "Tenants", Reason: "tenant name must be non-empty"}
	}
	if tc.MemBudget < 0 {
		return &ConfigError{Tenant: name, Field: "MemBudget",
			Reason: fmt.Sprintf("must be >= 0 (0 means no quota), got %d", tc.MemBudget)}
	}
	if tc.MemBudget > 0 && k > tc.MemBudget {
		return &ConfigError{Tenant: name, Field: "MemBudget",
			Reason: fmt.Sprintf("conflicts with RuntimeConfig.K = %d: a single steal's quota exceeds the tenant budget %d, so every job would be killed before its first preemption", k, tc.MemBudget)}
	}
	if tc.Weight < 0 {
		return &ConfigError{Tenant: name, Field: "Weight",
			Reason: fmt.Sprintf("must be >= 0 (0 means 1), got %d", tc.Weight)}
	}
	if tc.MaxPending < 0 {
		return &ConfigError{Tenant: name, Field: "MaxPending",
			Reason: fmt.Sprintf("must be >= 0 (0 means %d), got %d", DefaultMaxPending, tc.MaxPending)}
	}
	return nil
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	workers := c.Runtime.Workers
	if workers < 1 {
		workers = 1
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 4 * workers
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = DefaultRetainJobs
	}
	return c
}
