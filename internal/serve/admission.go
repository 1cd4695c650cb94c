package serve

// Weighted-fair admission control over a dynamic tenant table. Each
// tenant owns a bounded FIFO of pending jobs; one dispatcher goroutine
// interleaves tenants by start-time fair queuing — an accepted job is
// tagged AT ENQUEUE with a start tag S = max(V, tenant's last finish
// tag) and a finish tag F = S + 1/weight, the queued job with the
// smallest F is admitted, and V advances to the admitted job's S — so
// over any contended interval tenants are admitted in proportion to
// their weights. Tags freeze at arrival (recomputing them at pick time
// would let the virtual clock inflate a backlogged tenant's tags and
// erase its earned share). An admitted root enters the scheduler through
// policy.Inject at back-of-priority order (grt.Submit), which makes the
// admission order the execution-priority order among job roots: weighted
// fairness here IS the Lemma 3.1 priority ordering of the paper, applied
// at job granularity.
//
// The tenant table is mutable at runtime (PUT/DELETE /v1/tenants/{id}):
// every lookup, queue operation and tag assignment happens under
// admission.mu, so a table swap is atomic with respect to concurrent
// submits — a submission either sees the old contract or the new one,
// never a torn mix. Deleting a tenant fails its pending jobs and leaves
// its running jobs to finish against the (now orphaned) budget.
//
// A tenant has one memory line, its MemBudget, and every check reads it.
// Enqueue refuses (429) a priced job whose predicted cost does not fit
// what is left of the budget after the live heap and the reservations of
// its admitted jobs (cost_shed — see cost.go), any other job while the
// live heap has reached the budget (over_budget), and any job when the
// queue is full (queue_full); the dispatcher skips a tenant at its budget
// until completions free some. The backstop — the in-run ErrBudget kill
// of the job whose allocation crosses the same line — lives in grt.

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dfdeques/internal/grt"
)

// Enqueue refusals, mapped to HTTP statuses by the handler layer.
var (
	errQueueFull     = errors.New("serve: tenant pending queue is full")
	errOverBudget    = errors.New("serve: tenant live heap has reached its memory budget")
	errOverCost      = errors.New("serve: predicted job cost exceeds what is left of the tenant budget")
	errDraining      = errors.New("serve: server is draining")
	errTenantGone    = errors.New("serve: tenant was deleted")
	errJobCanceled   = errors.New("serve: job canceled by request")
	errTenantDeleted = errors.New("serve: tenant deleted while job was pending")
)

// job is one submission moving through the service.
type job struct {
	id       string
	seq      int64 // numeric id, stamped into rtrace as the job tag
	tenant   *tenant
	kind     string
	run      runnable
	cost     int64 // predicted live-memory price (0 = exempt)
	submitAt time.Time

	// SFQ tags, assigned under admission.mu when the job is accepted.
	startTag  float64
	finishTag float64

	mu        sync.Mutex
	state     string // "pending" → "running" → "done" | "failed" | "canceled"
	err       error
	result    jobResult
	finishAt  time.Time
	cancelReq bool   // DELETE arrived; run must be aborted
	cancelFn  func() // cancels the running job's context (set by runJob, dropped by finish)

	done chan struct{}
}

// finish classifies the job's outcome, counts it against its tenant and
// only then releases the waiters: a client that has seen the job finish
// must find it in its tenant's accounting. It drops the compiled program
// and the canceler: a retained job keeps only what status reports.
func (j *job) finish(res jobResult, err error) {
	j.mu.Lock()
	j.finishAt = time.Now()
	j.run, j.cancelFn = runnable{}, nil
	switch {
	case err == nil:
		j.state, j.result = "done", res
		j.tenant.completed.Add(1)
	case errors.Is(err, errJobCanceled) || errors.Is(err, context.Canceled):
		j.state, j.err = "canceled", err
		j.tenant.canceled.Add(1)
	default:
		j.state, j.err = "failed", err
		j.tenant.failed.Add(1)
	}
	j.mu.Unlock()
	close(j.done)
}

func (j *job) stateNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// start marks the job running and installs its context canceler; if a
// cancel request raced in while the job was leaving the queue, it fires now.
func (j *job) start(fn func()) {
	j.mu.Lock()
	j.state = "running"
	j.cancelFn = fn
	requested := j.cancelReq
	j.mu.Unlock()
	if requested {
		fn()
	}
}

// requestCancel marks a non-finished job for cancellation and fires its
// context canceler when one is installed. Reports whether this call was
// the first to request it (false once finished or already requested).
func (j *job) requestCancel() bool {
	j.mu.Lock()
	switch j.state {
	case "done", "failed", "canceled":
		j.mu.Unlock()
		return false
	}
	first := !j.cancelReq
	j.cancelReq = true
	fn := j.cancelFn
	j.mu.Unlock()
	if fn != nil {
		fn()
	}
	return first
}

// tenant is the server-side state of one tenant. Rows live in the
// admission table; weight, maxPending, pending, finishTag, reserved and
// gone are guarded by admission.mu. The budget limit is an atomic inside
// grt.Budget — read on every enqueue, moved by tenant CRUD without
// stalling admission.
type tenant struct {
	name   string
	tag    int64 // rtrace tenant tag (stable for the tenant's lifetime)
	budget *grt.Budget
	apiKey atomic.Pointer[string]

	weight     float64 // admission.mu
	maxPending int     // admission.mu
	reserved   int64   // admission.mu: sum of unfinished admitted costs
	gone       bool    // admission.mu: removed from the table

	// pending and finishTag are guarded by admission.mu.
	pending   []*job
	finishTag float64

	// Metrics (atomics: read by /metrics while the dispatcher runs).
	submitted      atomic.Int64
	admitted       atomic.Int64
	completed      atomic.Int64
	failed         atomic.Int64
	canceled       atomic.Int64
	rejectedQueue  atomic.Int64
	rejectedBudget atomic.Int64
	rejectedCost   atomic.Int64
	rejectedAuth   atomic.Int64

	lat latencyRing
}

// key returns the tenant's current API key ("" = open).
func (t *tenant) key() string {
	if p := t.apiKey.Load(); p != nil {
		return *p
	}
	return ""
}

// setContract applies the mutable parts of a TenantConfig. Callers hold
// admission.mu (creation runs before the tenant is published).
func (t *tenant) setContract(tc TenantConfig) {
	w := tc.Weight
	if w < 1 {
		w = 1
	}
	t.weight = float64(w)
	mp := tc.MaxPending
	if mp < 1 {
		mp = DefaultMaxPending
	}
	t.maxPending = mp
	key := tc.APIKey
	t.apiKey.Store(&key)
	t.budget.SetLimit(tc.MemBudget)
}

// atLimit reports whether the tenant's live heap has reached its budget.
func (t *tenant) atLimit() bool {
	lim := t.budget.Limit()
	return lim > 0 && t.budget.HeapLive() >= lim
}

// admission is the dispatcher: tenant queues in, running jobs out. The
// dispatcher hands each admitted job to one of maxInflight long-lived
// runners, so a job starts no goroutine of its own.
type admission struct {
	rt         *grt.Runtime
	baseCtx    context.Context // parent of every running job's context
	cancelRuns func()          // aborts the running jobs (an expired drain)
	runs       chan *job       // dispatcher → runners; closed when the dispatcher exits

	mu          sync.Mutex
	cond        *sync.Cond
	tenants     map[string]*tenant
	names       []string // sorted, for deterministic tie-breaks and scrapes
	tagSeq      int64    // rtrace tenant-tag allocator
	vtime       float64
	inflight    int
	maxInflight int
	draining    bool
	closed      bool

	wg sync.WaitGroup // dispatcher + runners
}

func newAdmission(rt *grt.Runtime, cfg Config) *admission {
	a := &admission{
		rt:          rt,
		runs:        make(chan *job),
		tenants:     make(map[string]*tenant, len(cfg.Tenants)),
		maxInflight: cfg.MaxInflight,
	}
	a.baseCtx, a.cancelRuns = context.WithCancel(context.Background())
	a.cond = sync.NewCond(&a.mu)
	for name := range cfg.Tenants {
		a.names = append(a.names, name)
	}
	sort.Strings(a.names) // deterministic trace tags for the seed set
	for _, name := range a.names {
		a.tagSeq++
		t := &tenant{name: name, tag: a.tagSeq, budget: grt.NewBudget(0)}
		t.setContract(cfg.Tenants[name])
		a.tenants[name] = t
	}
	a.wg.Add(1 + a.maxInflight)
	go a.dispatch()
	for i := 0; i < a.maxInflight; i++ {
		go func() {
			defer a.wg.Done()
			for j := range a.runs {
				a.runJob(j)
			}
		}()
	}
	return a
}

// lookup resolves a tenant by name under the table lock.
func (a *admission) lookup(name string) (*tenant, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tenants[name]
	return t, ok
}

// snapshot returns the live tenant rows in name order.
func (a *admission) snapshot() []*tenant {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*tenant, 0, len(a.names))
	for _, name := range a.names {
		out = append(out, a.tenants[name])
	}
	return out
}

// upsertTenant creates or replaces a tenant contract atomically with
// respect to concurrent submits: queued jobs and counters survive an
// update; budget limit, weight, queue bound and API key switch in one
// critical section. Reports whether the tenant was created.
func (a *admission) upsertTenant(name string, tc TenantConfig) (*tenant, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.tenants[name]; ok {
		t.setContract(tc)
		// A raised budget or queue bound can unblock the dispatcher.
		a.cond.Broadcast()
		return t, false
	}
	a.tagSeq++
	t := &tenant{name: name, tag: a.tagSeq, budget: grt.NewBudget(0)}
	t.setContract(tc)
	a.tenants[name] = t
	a.names = append(a.names, name)
	sort.Strings(a.names)
	return t, true
}

// removeTenant deletes a tenant from the table. Its pending jobs fail
// with errTenantDeleted; running jobs keep their budget pointer and
// finish normally (their reservations unwind through runJob). Returns
// the removed row, or nil if the name was unknown.
func (a *admission) removeTenant(name string) *tenant {
	a.mu.Lock()
	t, ok := a.tenants[name]
	if !ok {
		a.mu.Unlock()
		return nil
	}
	delete(a.tenants, name)
	for i, n := range a.names {
		if n == name {
			a.names = append(a.names[:i], a.names[i+1:]...)
			break
		}
	}
	t.gone = true
	orphans := t.pending
	t.pending = nil
	for _, j := range orphans {
		t.reserved -= j.cost
	}
	a.cond.Broadcast()
	a.mu.Unlock()
	for _, j := range orphans {
		j.finish(jobResult{}, errTenantDeleted)
	}
	return t
}

// enqueue admits j into its tenant's pending queue, or refuses with one
// of the sentinel errors above. The whole decision — cost gate against
// live+reserved, the budget line, queue bound, tag assignment — is one
// critical section, so it is atomic against tenant CRUD. The cost gate
// goes first: it refuses a priced job whenever the line would, so
// over_budget is what an unpriced job gets.
func (a *admission) enqueue(j *job) error {
	t := j.tenant
	t.submitted.Add(1)
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return errDraining
	}
	if t.gone {
		a.mu.Unlock()
		return errTenantGone
	}
	if lim := t.budget.Limit(); lim > 0 && j.cost > 0 &&
		t.budget.HeapLive()+t.reserved+j.cost > lim {
		a.mu.Unlock()
		t.rejectedCost.Add(1)
		return errOverCost
	}
	if t.atLimit() {
		a.mu.Unlock()
		t.rejectedBudget.Add(1)
		return errOverBudget
	}
	if len(t.pending) >= t.maxPending {
		a.mu.Unlock()
		t.rejectedQueue.Add(1)
		return errQueueFull
	}
	j.startTag = t.finishTag
	if a.vtime > j.startTag {
		j.startTag = a.vtime
	}
	j.finishTag = j.startTag + 1/t.weight
	t.finishTag = j.finishTag
	t.reserved += j.cost
	t.pending = append(t.pending, j)
	a.cond.Broadcast()
	a.mu.Unlock()
	return nil
}

// cancelJob cancels j wherever it is: still pending → removed from the
// queue and finished as canceled; running → its job context is canceled
// and the grt poison path kills its threads (runJob then classifies the
// finish). Reports whether this call initiated a cancellation.
func (a *admission) cancelJob(j *job) bool {
	t := j.tenant
	a.mu.Lock()
	for i, q := range t.pending {
		if q == j {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			t.reserved -= j.cost
			a.cond.Broadcast()
			a.mu.Unlock()
			j.finish(jobResult{}, errJobCanceled)
			return true
		}
	}
	a.mu.Unlock()
	return j.requestCancel()
}

// pickLocked returns the eligible tenant whose head-of-queue job has the
// smallest frozen finish tag (ties broken by name order), or nil.
// Tenants at their budget are skipped — their queues stall without
// blocking anyone else.
func (a *admission) pickLocked() *tenant {
	var best *tenant
	var bestTag float64
	for _, name := range a.names {
		t := a.tenants[name]
		if len(t.pending) == 0 || t.atLimit() {
			continue
		}
		if tag := t.pending[0].finishTag; best == nil || tag < bestTag {
			best, bestTag = t, tag
		}
	}
	return best
}

// dispatch is the admission loop: one goroutine, exits when closed and
// then stops the runners. A job is handed on only while a slot is free,
// so the send waits at most for a runner that is leaving its last job.
func (a *admission) dispatch() {
	defer a.wg.Done()
	defer close(a.runs)
	for {
		a.mu.Lock()
		var t *tenant
		for {
			if a.closed {
				a.mu.Unlock()
				return
			}
			if a.inflight < a.maxInflight {
				if t = a.pickLocked(); t != nil {
					break
				}
			}
			a.cond.Wait()
		}
		j := t.pending[0]
		t.pending = t.pending[1:]
		if j.startTag > a.vtime {
			a.vtime = j.startTag
		}
		a.inflight++
		a.mu.Unlock()

		t.admitted.Add(1)
		a.runs <- j
	}
}

// runJob executes one admitted job through the tenant's budget-attaching
// submitter and retires it, releasing its cost reservation.
func (a *admission) runJob(j *job) {
	ctx, cancel := context.WithCancel(a.baseCtx)
	j.start(cancel)
	t := j.tenant
	res, err := j.run.run(ctx, tenantSubmitter{
		rt: a.rt, budget: t.budget, tenantTag: t.tag, jobTag: j.seq,
	})
	cancel()
	// The latency sample is part of the tenant's accounting, so it lands
	// before finish releases the job's waiters.
	t.lat.record(time.Since(j.submitAt))
	j.finish(res, err)

	a.mu.Lock()
	a.inflight--
	t.reserved -= j.cost
	// Completions free budget, reservations and an inflight slot; all
	// three gate the dispatcher and the drain waiter.
	a.cond.Broadcast()
	a.mu.Unlock()
}

// drain runs the admission side of graceful shutdown: refuse new
// submissions, let pending and in-flight jobs run out, and join every
// goroutine. If ctx expires first, still-pending jobs are failed with
// ErrShutdown and running jobs are canceled (their contexts poison them;
// each dies at its next scheduling point). Idempotent.
func (a *admission) drain(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.cond.Broadcast()
		a.mu.Unlock()
	})
	defer stop()

	a.mu.Lock()
	a.draining = true
	a.cond.Broadcast()
	for ctx.Err() == nil && !a.idleLocked() {
		a.cond.Wait()
	}
	err := ctx.Err()
	if err != nil {
		// Abort: cancel what runs, fail everything still queued.
		a.cancelRuns()
		for _, name := range a.names {
			t := a.tenants[name]
			for _, j := range t.pending {
				t.reserved -= j.cost
				j.finish(jobResult{}, grt.ErrShutdown)
			}
			t.pending = nil
		}
	}
	a.closed = true
	a.cond.Broadcast()
	a.mu.Unlock()

	a.wg.Wait()
	a.cancelRuns()
	return err
}

func (a *admission) idleLocked() bool {
	if a.inflight > 0 {
		return false
	}
	for _, t := range a.tenants {
		if len(t.pending) > 0 {
			return false
		}
	}
	return true
}

// load returns the running jobs and the queued ones across tenants.
func (a *admission) load() (inflight, pending int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range a.tenants {
		pending += len(t.pending)
	}
	return a.inflight, pending
}

// tenantShape reads the mu-guarded parts of a tenant row for status
// reporting.
func (a *admission) tenantShape(t *tenant) (weight int, pending int, reserved int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(t.weight), len(t.pending), t.reserved
}

// tenantSubmitter attaches the tenant's budget and trace tags to every
// job a driver submits; it is the workload.Submitter the compiled
// runnables see.
type tenantSubmitter struct {
	rt                *grt.Runtime
	budget            *grt.Budget
	tenantTag, jobTag int64
}

func (s tenantSubmitter) Submit(ctx context.Context, root func(*grt.T)) (*grt.Job, error) {
	return s.rt.SubmitWith(ctx, root, grt.SubmitOpts{
		Budget: s.budget, TenantTag: s.tenantTag, JobTag: s.jobTag,
	})
}

// latencyRing keeps the most recent job latencies for percentile
// scrapes: bounded memory, O(n log n) only at scrape time.
type latencyRing struct {
	mu    sync.Mutex
	buf   [1024]int64 // nanoseconds
	n     int         // total ever recorded
	sumNs int64
}

func (r *latencyRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.n%len(r.buf)] = int64(d)
	r.n++
	r.sumNs += int64(d)
	r.mu.Unlock()
}

// snapshot returns the retained latencies (ns, unordered), the total
// count, and the total sum.
func (r *latencyRing) snapshot() (ns []int64, count int, sumNs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.n
	if kept > len(r.buf) {
		kept = len(r.buf)
	}
	ns = make([]int64, kept)
	copy(ns, r.buf[:kept])
	return ns, r.n, r.sumNs
}

// quantiles computes the requested quantiles over a snapshot.
func quantiles(ns []int64, qs []float64) []int64 {
	if len(ns) == 0 {
		return make([]int64, len(qs))
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	out := make([]int64, len(qs))
	for i, q := range qs {
		idx := int(q * float64(len(ns)-1))
		out[i] = ns[idx]
	}
	return out
}
