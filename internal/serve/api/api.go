// Package api is the wire schema of the dfdserve v1 HTTP surface: the
// request/response JSON types, the unified error envelope with its typed
// codes, and the authentication header names. It is a leaf package —
// imported by both the server (internal/serve) and the typed client
// (internal/serve/client) so the two sides share one vocabulary and the
// client never string-matches error bodies.
package api

import (
	"fmt"

	"dfdeques/internal/grt"
)

// Authentication headers. A tenant request authenticates with its
// configured API key in HeaderAPIKey (or "Authorization: Bearer <key>");
// tenant-CRUD management requests authenticate with the server's admin
// key in HeaderAdminKey.
const (
	HeaderAPIKey   = "X-API-Key"
	HeaderAdminKey = "X-Admin-Key"
)

// ErrorCode classifies a v1 error response; shared by server and client
// so callers switch on codes, never on message text.
type ErrorCode string

const (
	// CodeBadRequest (400): malformed body or invalid job shape.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeUnauthorized (401): missing or wrong API/admin key.
	CodeUnauthorized ErrorCode = "unauthorized"
	// CodeUnknownTenant (404): the named tenant is not configured.
	CodeUnknownTenant ErrorCode = "unknown_tenant"
	// CodeUnknownJob (404): no such job id (or it was evicted).
	CodeUnknownJob ErrorCode = "unknown_job"
	// CodeQueueFull (429): the tenant's pending queue is at MaxPending.
	CodeQueueFull ErrorCode = "queue_full"
	// CodeOverBudget (429): the tenant's live heap has reached its
	// memory budget; given to jobs the cost gate does not price.
	CodeOverBudget ErrorCode = "over_budget"
	// CodeCostShed (429): cost-based shedding — the job's predicted
	// live-memory cost exceeds what its tenant's live heap and admitted
	// jobs leave of the memory budget.
	CodeCostShed ErrorCode = "cost_shed"
	// CodeDraining (503): the server is shutting down.
	CodeDraining ErrorCode = "draining"
	// CodeInternal (500): unexpected server-side failure.
	CodeInternal ErrorCode = "internal"
	// CodeUncoveredFree (a failed job's JobStatus.Code): the job freed
	// bytes it did not hold. The free was refused, so the job lent its
	// tenant's budget no credit, and the job failed. Spec and tree jobs do
	// not reach it: compile refuses a program with an uncovered free
	// (dag.Validate) with CodeBadRequest. It is the runtime's backstop.
	CodeUncoveredFree ErrorCode = "uncovered_free"
)

// ErrorBody is the unified v1 error envelope: every non-2xx response
// from a /v1 route carries exactly this shape.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the envelope payload.
type ErrorDetail struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	Tenant  string    `json:"tenant,omitempty"`
	JobID   string    `json:"job_id,omitempty"`
}

// Error is the client-side view of an envelope: the decoded detail plus
// the HTTP status it rode in on. It implements error.
type Error struct {
	Status int
	ErrorDetail
}

func (e *Error) Error() string {
	return fmt.Sprintf("dfdserve: %s (%d): %s", e.Code, e.Status, e.Message)
}

// JobRequest is the wire format of one submission (POST /v1/jobs).
// Exactly one of Scenario, Tree, Spec must be set.
type JobRequest struct {
	// Tenant names the submitting tenant; must be configured.
	Tenant string `json:"tenant"`

	// Scenario runs a named irregular workload ("pipeline", "stream",
	// "taskgraph") at the given seed and scale, verifying its checksum
	// against the serial reference.
	Scenario string `json:"scenario,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Scale    int    `json:"scale,omitempty"`

	// Tree runs a uniform binary fork tree.
	Tree *TreeSpec `json:"tree,omitempty"`

	// Spec runs a declarative thread program.
	Spec *SpecNode `json:"spec,omitempty"`

	// WorkScale sets spin iterations per unit work action for Tree/Spec
	// jobs, in [0, 4096] (0 = interpreter default, 8); a value outside
	// the range is refused with 400.
	WorkScale int `json:"work_scale,omitempty"`
}

// TreeSpec describes a uniform binary fork tree: 2^Depth leaves, each
// allocating Alloc bytes, doing Work unit actions, and freeing.
type TreeSpec struct {
	Depth int   `json:"depth"`
	Alloc int64 `json:"alloc,omitempty"`
	Work  int64 `json:"work,omitempty"`
}

// SpecNode is one thread of a declarative program: a straight-line
// instruction list, forks naming child nodes — the JSON projection of
// dag.ThreadSpec.
type SpecNode struct {
	Label  string      `json:"label,omitempty"`
	Instrs []SpecInstr `json:"instrs"`
}

// SpecInstr is one instruction. Op is one of "work", "alloc", "free",
// "fork", "join", "acquire", "release"; N carries unit actions (work) or
// bytes (alloc/free), Child the forked thread, Lock the lock id.
type SpecInstr struct {
	Op    string    `json:"op"`
	N     int64     `json:"n,omitempty"`
	Blk   int32     `json:"blk,omitempty"`
	Touch int32     `json:"touch,omitempty"`
	Lock  int32     `json:"lock,omitempty"`
	Child *SpecNode `json:"child,omitempty"`
}

// JobStatus is the wire form of one job's state (submit responses,
// GET/DELETE /v1/jobs/{id}).
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Kind   string `json:"kind"`
	// Status is "pending" → "running" → "done" | "failed" | "canceled".
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Code classifies a failure the runtime types (CodeUncoveredFree).
	Code ErrorCode `json:"code,omitempty"`
	// Cost is the admission cost gate's predicted live-memory price of
	// the job (S1 + K·D from the declared bounds; 0 for scenario jobs,
	// which are cost-exempt).
	Cost      int64         `json:"cost,omitempty"`
	Checksum  string        `json:"checksum,omitempty"`
	Stats     *grt.JobStats `json:"stats,omitempty"`
	LatencyMs float64       `json:"latency_ms,omitempty"`
}

// TenantConfig is one tenant's contract: the body of PUT
// /v1/tenants/{id} and the per-tenant section of the server config.
type TenantConfig struct {
	// MemBudget is the tenant's live-heap budget in bytes across all of
	// its in-flight jobs; 0 means no quota (∞) — the same convention as
	// RuntimeConfig.K. Negative is a configuration error.
	MemBudget int64 `json:"mem_budget"`
	// Weight is the tenant's admission weight: under contention a tenant
	// with Weight 3 is admitted three jobs for every one of a Weight-1
	// tenant. 0 means 1.
	Weight int `json:"weight"`
	// MaxPending bounds the tenant's admission queue; submissions beyond
	// it get HTTP 429. 0 means the server default.
	MaxPending int `json:"max_pending"`
	// APIKey, when non-empty, is required (HeaderAPIKey or bearer token)
	// on every job request the tenant makes. Empty leaves the tenant
	// open — a dev-mode convenience, not a production posture.
	APIKey string `json:"api_key,omitempty"`
}

// TenantStatus is the wire form of one tenant's accounting
// (GET /v1/tenants and GET /v1/tenants/{id}).
type TenantStatus struct {
	Name      string `json:"name"`
	Weight    int    `json:"weight"`
	MemBudget int64  `json:"mem_budget"`
	// TraceTag is the opaque tenant tag stamped into rtrace job
	// annotations (EvJobAnnotate) for every job the tenant runs; the
	// exporter shows it on each job's job-annotate instant, and
	// rtrace.Verify replays annotated streams unchanged.
	TraceTag       int64 `json:"trace_tag,omitempty"`
	ReservedCost   int64 `json:"reserved_cost,omitempty"`
	HeapLive       int64 `json:"heap_live"`
	HeapHW         int64 `json:"heap_hw"`
	Pending        int   `json:"pending"`
	Submitted      int64 `json:"submitted"`
	Admitted       int64 `json:"admitted"`
	Completed      int64 `json:"completed"`
	Failed         int64 `json:"failed"`
	Canceled       int64 `json:"canceled"`
	RejectedQueue  int64 `json:"rejected_queue"`
	RejectedBudget int64 `json:"rejected_budget"`
	RejectedCost   int64 `json:"rejected_cost"`
	RejectedAuth   int64 `json:"rejected_auth"`
	BudgetKills    int64 `json:"budget_kills"`
}
