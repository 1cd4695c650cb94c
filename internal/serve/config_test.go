package serve

import (
	"errors"
	"strings"
	"testing"

	"dfdeques"
)

func validConfig() Config {
	return Config{
		Runtime: dfdeques.RuntimeConfig{Workers: 2, Sched: dfdeques.SchedDFDeques, K: 256},
		Tenants: map[string]TenantConfig{
			"alice": {MemBudget: 1 << 20, Weight: 2},
			"bob":   {},
		},
	}
}

func TestConfigValidateOK(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// Satellite: negative tenant budgets are a ConfigError, matching the
// runtime's "0 means no quota (∞)" convention for K.
func TestConfigNegativeBudget(t *testing.T) {
	cfg := validConfig()
	cfg.Tenants["alice"] = TenantConfig{MemBudget: -1}
	err := cfg.Validate()
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConfigError, got %v", err)
	}
	if ce.Tenant != "alice" || ce.Field != "MemBudget" {
		t.Fatalf("wrong error target: %+v", ce)
	}
	if !strings.Contains(ce.Reason, "0 means no quota") {
		t.Fatalf("reason should state the K=0 convention, got %q", ce.Reason)
	}
}

// Satellite: a tenant budget smaller than the scheduler's K is a
// conflict — a single steal's quota would exceed the whole budget.
func TestConfigBudgetConflictsWithK(t *testing.T) {
	cfg := validConfig()
	cfg.Runtime.K = 4096
	cfg.Tenants["bob"] = TenantConfig{MemBudget: 1024}
	err := cfg.Validate()
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConfigError, got %v", err)
	}
	if ce.Tenant != "bob" || ce.Field != "MemBudget" {
		t.Fatalf("wrong error target: %+v", ce)
	}
	if !strings.Contains(ce.Reason, "RuntimeConfig.K") {
		t.Fatalf("reason should name the conflicting field, got %q", ce.Reason)
	}
	// A zero budget (no quota) never conflicts, whatever K is.
	cfg.Tenants["bob"] = TenantConfig{MemBudget: 0}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("unlimited budget must not conflict with K: %v", err)
	}
}

func TestConfigRuntimeErrorPassesThrough(t *testing.T) {
	cfg := validConfig()
	cfg.Runtime.Workers = -1
	err := cfg.Validate()
	var rce *dfdeques.ConfigError
	if !errors.As(err, &rce) {
		t.Fatalf("want runtime *dfdeques.ConfigError, got %v", err)
	}
	if rce.Field != "Workers" {
		t.Fatalf("wrong field: %+v", rce)
	}
}

func TestConfigFieldErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		tenant string
		field  string
	}{
		{"no tenants", func(c *Config) { c.Tenants = nil }, "", "Tenants"},
		{"empty tenant name", func(c *Config) { c.Tenants[""] = TenantConfig{} }, "", "Tenants"},
		{"negative weight", func(c *Config) { c.Tenants["bob"] = TenantConfig{Weight: -2} }, "bob", "Weight"},
		{"negative max pending", func(c *Config) { c.Tenants["bob"] = TenantConfig{MaxPending: -1} }, "bob", "MaxPending"},
		{"negative inflight", func(c *Config) { c.MaxInflight = -1 }, "", "MaxInflight"},
		{"negative body bytes", func(c *Config) { c.MaxBodyBytes = -1 }, "", "MaxBodyBytes"},
		{"negative retain", func(c *Config) { c.RetainJobs = -1 }, "", "RetainJobs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("want *ConfigError, got %v", err)
			}
			if ce.Tenant != tc.tenant || ce.Field != tc.field {
				t.Fatalf("want Tenants[%q].%s, got %+v", tc.tenant, tc.field, ce)
			}
			if ce.Error() == "" || !strings.HasPrefix(ce.Error(), "serve: invalid") {
				t.Fatalf("bad message: %q", ce.Error())
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := validConfig()
	cfg.Runtime.Workers = 3
	got := cfg.withDefaults()
	if got.MaxInflight != 12 {
		t.Fatalf("MaxInflight default: want 4x workers = 12, got %d", got.MaxInflight)
	}
	if got.MaxBodyBytes != DefaultMaxBodyBytes || got.RetainJobs != DefaultRetainJobs {
		t.Fatalf("defaults not applied: %+v", got)
	}
}
