package main

// The client-driven smoke sequence (-smoke URL): a black-box exercise of
// the v1 surface against a running dfdserve, used by CI's serve-smoke
// job and by hand after deploys. It walks the full tenant lifecycle with
// the typed client — create a keyed tenant, run a job, get rejected
// without the key, get cost-shed on an oversized declaration, cancel an
// in-flight job, check the accounting shows up in /metrics, delete the
// tenant — and fails loudly on the first divergence.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"dfdeques/internal/serve/api"
	"dfdeques/internal/serve/client"
)

const (
	smokeTenant = "smoke"
	smokeKey    = "smoke-key"
)

// expectErr asserts err is the typed envelope with the given status and
// code.
func expectErr(err error, status int, code api.ErrorCode) error {
	var ae *api.Error
	if !errors.As(err, &ae) {
		return fmt.Errorf("want %d/%s error, got %v", status, code, err)
	}
	if ae.Status != status || ae.Code != code {
		return fmt.Errorf("want %d/%s, got %d/%s (%s)", status, code, ae.Status, ae.Code, ae.Message)
	}
	return nil
}

func runSmoke(base, adminKey string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	admin := client.New(base).WithKeys(smokeKey, adminKey)
	anon := client.New(base)

	step := func(name string, f func() error) error {
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println("smoke:", name, "ok")
		return nil
	}

	steps := []struct {
		name string
		f    func() error
	}{
		{"healthz", func() error { return admin.Healthz(ctx) }},

		{"put tenant", func() error {
			row, err := admin.PutTenant(ctx, smokeTenant, api.TenantConfig{
				MemBudget: 1 << 20, Weight: 2, MaxPending: 8, APIKey: smokeKey,
			})
			if err != nil {
				return err
			}
			if row.TraceTag == 0 {
				return fmt.Errorf("tenant row has no trace tag: %+v", row)
			}
			return nil
		}},

		{"authed submit", func() error {
			st, err := admin.SubmitWait(ctx, api.JobRequest{
				Tenant: smokeTenant, Tree: &api.TreeSpec{Depth: 6, Alloc: 64, Work: 50},
			})
			if err != nil {
				return err
			}
			if st.Status != "done" {
				return fmt.Errorf("job status %q, want done (%s)", st.Status, st.Error)
			}
			return nil
		}},

		{"unauthenticated submit rejected", func() error {
			_, err := anon.Submit(ctx, api.JobRequest{
				Tenant: smokeTenant, Tree: &api.TreeSpec{Depth: 2},
			})
			return expectErr(err, 401, api.CodeUnauthorized)
		}},

		{"whale cost-shed", func() error {
			_, err := admin.Submit(ctx, api.JobRequest{
				Tenant: smokeTenant, Tree: &api.TreeSpec{Depth: 0, Alloc: 8 << 20},
			})
			return expectErr(err, 429, api.CodeCostShed)
		}},

		{"cancel in-flight job", func() error {
			// Enough work to outlive the cancel round-trip: one spin
			// instruction is bounded at 2^20 units, so chain a batch.
			slow := &api.SpecNode{Label: "slow", Instrs: []api.SpecInstr{{Op: "alloc", N: 4096}}}
			for i := 0; i < 64; i++ {
				slow.Instrs = append(slow.Instrs, api.SpecInstr{Op: "work", N: 1_000_000})
			}
			slow.Instrs = append(slow.Instrs, api.SpecInstr{Op: "free", N: 4096})
			st, err := admin.Submit(ctx, api.JobRequest{Tenant: smokeTenant, Spec: slow})
			if err != nil {
				return err
			}
			if _, err := admin.CancelJob(ctx, st.ID); err != nil {
				return err
			}
			// A running job classifies asynchronously: the poison has to
			// unwind before the status flips.
			for i := 0; i < 200; i++ {
				cur, err := admin.Job(ctx, st.ID)
				if err != nil {
					return err
				}
				if cur.Status == "canceled" {
					return nil
				}
				if cur.Status == "done" || cur.Status == "failed" {
					return fmt.Errorf("job finished %q before the cancel landed", cur.Status)
				}
				time.Sleep(10 * time.Millisecond)
			}
			return errors.New("job never reached canceled")
		}},

		{"metrics account the run", func() error {
			text, err := admin.Metrics(ctx)
			if err != nil {
				return err
			}
			for _, want := range []string{
				`dfdserve_jobs_canceled_total{tenant="smoke"} 1`,
				`dfdserve_jobs_rejected_total{tenant="smoke",reason="cost_shed"} 1`,
				`dfdserve_budget_live_bytes{tenant="smoke"}`,
				`dfdserve_auth_failures_total`,
			} {
				if !strings.Contains(text, want) {
					return fmt.Errorf("metrics missing %q", want)
				}
			}
			return nil
		}},

		{"delete tenant", func() error {
			if _, err := admin.DeleteTenant(ctx, smokeTenant); err != nil {
				return err
			}
			_, err := admin.Tenant(ctx, smokeTenant)
			return expectErr(err, 404, api.CodeUnknownTenant)
		}},
	}
	for _, s := range steps {
		if err := step(s.name, s.f); err != nil {
			return err
		}
	}
	return nil
}
