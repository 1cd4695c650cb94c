// Package grt is a real, concurrent user-level fork-join thread runtime —
// the Go analogue of the paper's modified Solaris Pthreads library (§5).
// User threads are goroutines multiplexed onto a fixed set of workers by a
// pluggable scheduling policy (internal/policy): DFDeques(K) (the paper's
// algorithm, §3), WS (the Blumofe & Leiserson work stealer — DFDeques(∞),
// §3.3), ADF(K) (the depth-first baseline), or FIFO (the original library
// scheduler). The engine is policy-agnostic — one engine drives whatever
// policy Config selects; the machine simulator (internal/machine) drives
// the same policies.
//
// The paper's implementation serializes all scheduling state — the deque
// list R, the global queue, thread priorities — behind a single lock (§5:
// "R is implemented as a linked list of deques protected by a shared
// scheduler lock") and names that serialization as its scalability limit.
// This runtime synchronizes fine-grained instead: lock-free deque item
// operations, a spine lock on R taken only by steals and membership
// changes, a priority order read lock-free off the fork tree (prioLess),
// per-thread locks for the join protocol, and atomic heap-quota accounting:
// Alloc takes no lock at all. See DESIGN.md §5 ("beyond the paper").
//
// The policy is consulted at exactly the paper's scheduling points: fork,
// join on a live child, quota-checked allocation, lock block, dummy
// execution, and termination. A thread runs every one of them on its own
// goroutine as agent of its worker (§5: the scheduler runs on the thread
// that gives up the processor): at a give-up (quota, dummy) it makes the
// steal itself, at a block it queues itself and takes the worker's next
// thread, at its exit it runs Terminate — and it hands the worker role back
// with that choice.
//
// Execution is work-first: Fork publishes the forked closure and the
// forking thread keeps running inline; Join claims the closure back with a
// conditional pop and runs its body inline in the joiner's own frame when
// nothing — a thief, a woken thread — has displaced it. A goroutine (stack
// + resume channel) is promoted lazily, only when a thread is actually
// dispatched by a worker (it was stolen or woken) or blocks mid-inline-run,
// so a never-stolen fork+join costs two deque operations and zero
// allocations in steady state. The serial order this executes is
// parent-first — the forking thread continues, the forked closure runs at
// the join — so the forking thread plays the paper's child and the pushed
// closure the paper's parent: the closure takes the 1DF priority
// immediately after its forker, and the runtime is DFDeques(K) in the
// paper's own geometry (Lemma 3.1 as stated) on the dag with each fork's
// two branches swapped. The trace verifier (internal/rtrace) checks that
// on the real runtime's history.
//
// Workers hand threads off synchronously: a worker resumes a thread's
// goroutine and sleeps on its yield channel until the thread hands the role
// back with the next thread to run (Stats.Handoffs), so at most Workers
// user goroutines execute user code at any instant — the runtime schedules
// threads, not the Go scheduler.
//
// The runtime is a long-lived service: New starts the worker pool once,
// Submit runs any number of root computations (concurrently and
// back-to-back) on the same warm workers — each job its own fork-join
// tree with its own stats, panic isolation, and context
// cancellation/deadline — and Shutdown drains or aborts the in-flight
// jobs and joins every worker. Cancellation is a poison flag checked with
// one atomic load at the paper's existing scheduling points (fork, join,
// quota-checked allocation, lock/future block, dummy execution), so the
// DFDeques(K) protocol and its scheduling bounds are untouched on the
// uncanceled path. Run remains the one-shot convenience wrapper:
// New + Submit + Wait + Shutdown.
package grt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dfdeques/internal/dag"
	"dfdeques/internal/policy"
	"dfdeques/internal/rtrace"
)

// Kind selects the scheduling algorithm.
type Kind int

const (
	// DFDeques is algorithm DFDeques(K) (§3.3).
	DFDeques Kind = iota
	// ADF is the asynchronous depth-first scheduler with per-thread
	// memory quota.
	ADF
	// FIFO is a single global FIFO run queue; forked children are
	// enqueued and the parent keeps running (breadth-first).
	FIFO
	// WS is the Blumofe & Leiserson work stealer, which on nested-parallel
	// programs is DFDeques(∞) (§3.3): the runtime builds exactly that —
	// the DFDeques policy with no memory quota. K is ignored.
	WS
)

func (k Kind) String() string {
	switch k {
	case DFDeques:
		return "DFDeques"
	case ADF:
		return "ADF"
	case FIFO:
		return "FIFO"
	case WS:
		return "WS"
	}
	return "Kind?"
}

// Config configures a runtime.
type Config struct {
	// Workers is the number of scheduler workers (virtual processors).
	Workers int
	// Sched selects the algorithm.
	Sched Kind
	// K is the memory threshold in bytes; 0 means no quota (∞). For
	// DFDeques it bounds net allocation per steal; for ADF, per thread
	// dispatch. WS ignores it (WS is DFDeques(∞)), and so does FIFO,
	// which has no threshold.
	K int64
	// Seed drives steal-victim randomness.
	Seed int64
	// MeasureContention enables the wall-clock contention counters in
	// Stats (StealWaitNs, SchedLockNs). Off by default: timing every
	// critical section costs two clock reads per scheduling event, which
	// would distort the very benchmarks the counters exist to explain.
	MeasureContention bool
	// Probe receives one record, or one burst of records (rtrace.Expand),
	// per scheduling decision (see internal/rtrace for the event model);
	// nil disables recording. Pass an
	// *rtrace.Recorder to capture a run for export or replay verification
	// — Run stamps the recorder's metadata automatically.
	Probe rtrace.Probe
}

// Stats reports what a run did.
type Stats struct {
	TotalThreads    int64
	MaxLiveThreads  int64
	DummyThreads    int64
	Steals          int64 // successful shared acquisitions
	FailedSteals    int64
	LocalDispatches int64 // own-deque dispatches (DFDeques only)
	Preemptions     int64 // quota preemptions
	HeapHW          int64 // high-water of Alloc−Free bytes
	HeapLive        int64 // final Alloc−Free balance (0 when frees match)
	MaxDeques       int64 // high-water of the ready structure (len(R); ≤ Workers under WS; 1 for queues)
	Handoffs        int64 // times a worker resumed a thread's goroutine and slept until the role came back

	// Contention counters. SchedLockOps counts exclusive acquisitions of
	// the policy's serializing lock: the R spine for DFDeques and WS, the
	// queue lock for ADF and FIFO. The *Ns counters are populated only
	// under MeasureContention.
	SchedLockOps int64
	SchedLockNs  int64 // total ns workers spent waiting to acquire that lock
	StealWaitNs  int64 // total ns spent acquiring a thread: idle workers, and threads re-stealing after a give-up
}

// T is a user-level thread handle, passed to every thread body. Methods on
// T must only be called from within that thread's body.
type T struct {
	rt     *Runtime
	job    *Job
	body   func(*T)
	resume chan struct{}
	// started flips once, when the thread first gets a stack: the worker
	// dispatch that spawns its goroutine, or the promotion of a frame
	// running inline. It is atomic because the inline-join guard reads it
	// while a thief may be concurrently dispatching the thread; the reading
	// side never trusts it alone — the conditional pop (policy.JoinPop)
	// arbitrates.
	started atomic.Bool
	leaves  int64 // dummy leaves under this node of a §3.3 dummy tree: 1 is a dummy, 0 an ordinary thread
	root    bool  // job root: released by its own exit (nothing ever joins it)
	tid     int64 // stable trace id: first root is 1, then submit/fork order; 0 with no probe

	// The 1DF position, read by prioLess: the forking thread (nil for a job
	// root), the nesting depth, and the index among the parent's forks (a
	// root: its job id). Written once by the forker before the thread is
	// published; forks counts the thread's own forks and only it touches it.
	parent       *T
	depth        int
	index, forks int64

	// w is the worker currently driving the thread (set by the dispatching
	// worker before resuming, and propagated chain-upward when an inline
	// join returns): inline code traces and consults per-worker policy state
	// as agent of worker w while that worker is parked in step.
	w int

	// Owned by the thread goroutine:
	unjoined []*T

	// stateMu guards the done/waiter arbitration — the join protocol's
	// only synchronization. done itself is atomic so the join
	// fast path can poll it without paying a lock cycle; the waiter
	// handoff still arbitrates under stateMu.
	stateMu sync.Mutex
	done    atomic.Bool
	waiter  *T
}

// finish marks t done and returns the thread waiting on it, if any. The
// child side of the join protocol.
func (t *T) finish() (woke *T) {
	t.stateMu.Lock()
	// The waiter hand-off must complete before done is published: a
	// parent polling isDone lock-free may release t to the pool the
	// instant the store lands, so the store has to be finish's last
	// write to the frame. Lock-holders are indifferent to the order.
	woke = t.waiter
	t.waiter = nil
	t.done.Store(true)
	t.stateMu.Unlock()
	return woke
}

// registerWaiter records waiter as the thread to wake when t terminates,
// unless t is already done (reported as true: the parent keeps running).
// The parent side of the join protocol, called by the promoted joiner as
// agent of worker w; from true on, t's exit may dispatch it. The block
// event is recorded under stateMu: the child's finish acquires the same
// lock before its Terminate can dispatch the waiter, so the block's
// sequence number always precedes the hand-off dispatch's.
func (t *T) registerWaiter(w int, waiter *T) (alreadyDone bool) {
	t.stateMu.Lock()
	defer t.stateMu.Unlock()
	if t.done.Load() {
		return true
	}
	t.waiter = waiter
	t.rt.trace(w, rtrace.EvBlock, waiter.tid, rtrace.BlockJoin, t.tid)
	return false
}

// isDone reports whether t has terminated. The atomic load is ordered
// after every write of t's body: finish stores done on the thread's own
// goroutine (an inline frame's in joinInline, a dispatched thread's in
// exit), so an observer of true inherits the body's effects.
func (t *T) isDone() bool {
	return t.done.Load()
}

// Runtime executes nested-parallel computations under one scheduler. It
// is a persistent service: build one with New, feed it jobs with Submit,
// and stop it with Shutdown. The one-shot Run wraps that whole lifecycle.
type Runtime struct {
	cfg Config

	// pol is the scheduling policy: it owns every ready-thread decision.
	// The policies are internally synchronized (fine-grained); threshold
	// caches pol.Threshold() for the Alloc hot path.
	pol       policy.Policy[*T]
	threshold int64

	// probe records scheduling events (nil: tracing off). Engine-side
	// events need no lock — each is ordered by its worker's program order
	// and the channel handoffs; the policies record structural events
	// under their own locks; scheduler-side (lane -1) events are
	// serialized by extMu.
	probe rtrace.Probe

	// idle parks and wakes idle workers and arbitrates the deadlock check
	// (idle.go); its mu is never held while consulting the policy.
	idle idle

	// extMu serializes every scheduler interaction that does not come
	// from a worker: Submit's publication, the cancel sweep's
	// republications, and the deadlock confirmation. It gives lane -1 of
	// the trace a single writer mid-run, and it is what makes a Submit
	// atomic against the deadlock detector (counters and publication
	// become visible together). Order: extMu → idle.mu → jobsMu.
	extMu sync.Mutex

	// jobsMu guards the job registry and the draining flag; it is a leaf
	// lock (taken under extMu by Submit, under idle.mu by a park's view,
	// bare by job completion).
	jobsMu   sync.Mutex
	jobs     map[int64]*Job
	draining bool

	// Accounting: atomics, so the hot paths (fork, alloc) never need a
	// lock for bookkeeping. Per-job counters live on Job; the runtime
	// keeps only what scheduling itself needs — the trace id (drawn only
	// when a probe is attached) and job id wells, the steal-wait clock,
	// and each worker's hand-off count.
	tids, jobIDs atomic.Int64
	stealWaitNs  atomic.Int64
	handoffs     []paddedCount
	// yield[w] hands worker w back its role from the thread that stopped
	// running on it: the thread w runs next, nil to acquire. Unbuffered, and
	// w is its only receiver.
	yield []chan *T

	stopped atomic.Bool

	wg sync.WaitGroup

	// shutMu serializes Shutdown calls (idempotence).
	shutMu   sync.Mutex
	shutdown bool
}

// paddedCount is a counter on a cache line of its own.
type paddedCount struct {
	atomic.Int64
	_ [56]byte
}

// ErrShutdown is returned by Submit after Shutdown has begun, and is the
// error of jobs aborted by a shutdown whose context expired.
var ErrShutdown = errors.New("grt: runtime is shut down")

// New builds a runtime and starts its worker pool. The workers idle (parked,
// not spinning) until Submit gives them work; call Shutdown to join them.
func New(cfg Config) (*Runtime, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	rt := &Runtime{cfg: cfg, jobs: make(map[int64]*Job)}
	rt.idle.cond.L = &rt.idle.mu
	rt.handoffs = make([]paddedCount, cfg.Workers)
	rt.yield = make([]chan *T, cfg.Workers)
	switch cfg.Sched {
	case DFDeques:
		rt.pol = policy.NewDFD(cfg.Workers, cfg.K, prioLess, cfg.Seed)
	case WS:
		rt.pol = policy.NewDFD(cfg.Workers, 0, prioLess, cfg.Seed)
	case ADF:
		rt.pol = policy.NewADF(cfg.Workers, cfg.K, prioLess)
	case FIFO:
		rt.pol = policy.NewFIFO[*T]()
	default:
		return nil, fmt.Errorf("grt: unknown scheduler kind %d", cfg.Sched)
	}
	rt.threshold = rt.pol.Threshold()
	if cfg.MeasureContention {
		rt.pol.MeasureLockWait()
	}

	if cfg.Probe != nil {
		rt.probe = cfg.Probe
		// Anything that can carry run metadata gets it stamped: a
		// *rtrace.Recorder directly, or an rtrace.Tee that forwards to the
		// recorders inside it.
		if rec, ok := cfg.Probe.(interface{ SetMeta(rtrace.Meta) }); ok {
			rec.SetMeta(rtrace.Meta{
				Policy: rt.pol.Name(), Workers: cfg.Workers,
				K: rt.threshold, Seed: cfg.Seed, Engine: rtrace.EngineCont,
			})
		}
		rt.pol.Instrument(cfg.Probe, func(t *T) int64 { return t.tid }, func(t *T) bool { return t.leaves == 1 })
	}

	for w := 0; w < cfg.Workers; w++ {
		rt.yield[w] = make(chan *T)
		rt.wg.Add(1)
		go func(w int) {
			defer rt.wg.Done()
			rt.worker(w)
		}(w)
	}
	return rt, nil
}

// Submit starts root as the root thread of a new job on the warm worker
// pool and returns immediately. The job runs until its tree completes or
// ctx is canceled — cancellation and deadlines poison the job's threads,
// which then die at their next scheduling point; Job.Wait reports the
// outcome. Submit fails with ErrShutdown once Shutdown has begun.
func (rt *Runtime) Submit(ctx context.Context, root func(*T)) (*Job, error) {
	return rt.submit(ctx, root, SubmitOpts{})
}

func (rt *Runtime) submit(ctx context.Context, root func(*T), opts SubmitOpts) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j := &Job{rt: rt, ctx: ctx, budget: opts.Budget, done: make(chan struct{})}
	rootT := rt.newT(root)
	rootT.job = j
	rootT.root = true
	j.live.Store(1)
	j.tot.Store(1)
	j.maxLive.Store(1)

	// Publication is atomic under extMu: the deadlock detector confirms
	// under the same lock, so it can never observe the registered job
	// without the published root (or vice versa). Job roots take the
	// lowest 1DF priority — the job id, drawn here in injection order, is
	// the root's index, so it comes after everything already running —
	// and the policy's Inject can publish them where its order expects
	// the lowest-priority thread without comparing (DFDeques: the right
	// end of R), preserving Lemma 3.1.
	rt.extMu.Lock()
	rt.jobsMu.Lock()
	if rt.draining {
		rt.jobsMu.Unlock()
		rt.extMu.Unlock()
		return nil, ErrShutdown
	}
	j.id = rt.jobIDs.Add(1)
	rt.jobs[j.id] = j
	rt.jobsMu.Unlock()

	rootT.index = j.id
	if rt.probe != nil {
		rootT.tid = rt.tids.Add(1)
	}
	rt.trace(-1, rtrace.EvJobBegin, j.id, rootT.tid, 0)
	if opts.TenantTag != 0 || opts.JobTag != 0 {
		rt.trace(-1, rtrace.EvJobAnnotate, j.id, opts.TenantTag, opts.JobTag)
	}
	if ctx.Done() != nil {
		// The context watch: poison the job the moment ctx fires. It is
		// registered before the root is published, so the worker whose
		// finishJob stops it sees it; a ctx that has already fired runs
		// the cancel once extMu is free.
		j.stopWatch = context.AfterFunc(ctx, func() { j.cancel(ctx.Err()) })
	}
	rt.pol.Inject(rootT)
	rt.extMu.Unlock()
	rt.idle.signal()
	return j, nil
}

// finishJob retires a job whose last thread just completed on worker w.
func (rt *Runtime) finishJob(w int, j *Job) {
	var failed int64
	j.mu.Lock()
	j.ended = true
	if j.err != nil {
		failed = 1
	}
	rt.trace(w, rtrace.EvJobEnd, j.id, failed, 0)
	j.mu.Unlock()
	if j.stopWatch != nil {
		j.stopWatch()
	}
	if j.budget != nil {
		j.budget.settle(j)
	}
	rt.jobsMu.Lock()
	delete(rt.jobs, j.id)
	rt.jobsMu.Unlock()
	close(j.done)
}

// Shutdown stops the runtime: it refuses new submissions, waits for the
// in-flight jobs to drain, and joins every worker. If ctx is canceled
// first, the remaining jobs are aborted (poisoned with ErrShutdown),
// their threads drained at their next scheduling points, and ctx's error
// returned; the workers are joined either way, so a returned Shutdown
// leaves no runtime goroutine behind. Idempotent.
func (rt *Runtime) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	rt.shutMu.Lock()
	defer rt.shutMu.Unlock()

	rt.jobsMu.Lock()
	rt.draining = true
	inflight := make([]*Job, 0, len(rt.jobs))
	for _, j := range rt.jobs {
		inflight = append(inflight, j)
	}
	rt.jobsMu.Unlock()

	var ctxErr error
	for _, j := range inflight {
		select {
		case <-j.done:
		case <-ctx.Done():
			ctxErr = ctx.Err()
		}
		if ctxErr != nil {
			break
		}
	}
	if ctxErr != nil {
		for _, j := range inflight {
			j.cancel(ErrShutdown)
		}
		// Poisoned threads still need a scheduling point to die at; the
		// drain is bounded by the job's longest event-free stretch.
		for _, j := range inflight {
			<-j.done
		}
	}

	rt.stopped.Store(true)
	rt.idle.mu.Lock()
	rt.idle.cond.Broadcast()
	rt.idle.mu.Unlock()
	rt.wg.Wait()
	rt.shutdown = true
	return ctxErr
}

// Run executes root as the root thread of a fresh one-job runtime and
// blocks until the computation completes: New + Submit + Wait + Shutdown.
// It returns the run's statistics and an error if any thread body
// panicked or violated the nested-parallel discipline.
func Run(cfg Config, root func(*T)) (Stats, error) {
	rt, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	j, err := rt.Submit(context.Background(), root)
	if err != nil {
		rt.Shutdown(context.Background())
		return Stats{}, err
	}
	js, jerr := j.Wait()
	rt.Shutdown(context.Background())
	return rt.Stats(js), jerr
}

// Stats merges a job's accounting with the runtime's scheduler-wide
// counters into the flat one-shot report Run returns. With several jobs
// the scheduler counters span all of them.
func (rt *Runtime) Stats(js JobStats) Stats {
	ps := rt.pol.Stats()
	var handoffs int64
	for w := range rt.handoffs {
		handoffs += rt.handoffs[w].Load()
	}
	return Stats{
		TotalThreads:    js.TotalThreads,
		MaxLiveThreads:  js.MaxLiveThreads,
		DummyThreads:    js.DummyThreads,
		Steals:          ps.Steals,
		FailedSteals:    ps.FailedSteals,
		LocalDispatches: ps.LocalDispatches,
		Preemptions:     js.Preemptions,
		HeapHW:          js.HeapHW,
		HeapLive:        js.HeapLive,
		MaxDeques:       int64(ps.MaxDeques),
		SchedLockOps:    ps.LockOps,
		SchedLockNs:     ps.LockWaitNs,
		StealWaitNs:     rt.stealWaitNs.Load(),
		Handoffs:        handoffs,
	}
}

// tPool recycles thread frames across forks. A terminated thread's frame
// goes back to the pool once the last reference lets go — the joining
// parent for ordinary threads (Join), the root's own exit for job roots
// — so the fork hot path allocates nothing in steady
// state. A frame is born bare (the common inline fork+join never needs a
// channel) and keeps the resume channel its first promotion gave it across
// recycling: at release every token sent on it has been consumed (each
// step's by the handBack, or the main, that waited for it).
var tPool = sync.Pool{New: func() any { return &T{} }}

func (rt *Runtime) newT(body func(*T)) *T {
	t := tPool.Get().(*T)
	t.rt = rt
	t.body = body
	return t
}

// releaseT returns a dead thread's frame to the pool. The caller must be
// the frame's last referent: the parent after Join observed isDone, or
// a job root's exit. No frame of a poisoned job is pooled:
// its parents unwind without joining, so a dead frame may still be the
// ancestor prioLess walks through from a live descendant — the garbage
// collector reclaims the whole tree instead. (Poison is set before any
// such unwinding starts, so the check cannot miss.)
func releaseT(t *T) {
	if t.job.poisoned.Load() {
		return
	}
	t.job = nil
	t.body = nil
	t.parent, t.depth, t.index, t.forks = nil, 0, 0, 0
	t.started.Store(false)
	t.leaves = 0
	t.root = false
	t.tid = 0
	t.w = 0
	t.unjoined = t.unjoined[:0]
	t.done.Store(false)
	t.waiter = nil
	tPool.Put(t)
}

// noteFork does the bookkeeping of child being forked by curr: 1DF
// position, trace id, and thread counters. The forking thread keeps
// running (it plays the paper's child) and the forked closure is what the
// paper calls the pushed parent, so it takes the 1DF priority immediately
// *after* curr — which prioLess reads off these three words.
func (rt *Runtime) noteFork(curr, child *T) {
	child.parent, child.depth, child.index = curr, curr.depth+1, curr.forks
	curr.forks++
	if rt.probe != nil {
		child.tid = rt.tids.Add(1)
	}
	j := curr.job
	j.tot.Add(1)
	atomicMax(&j.maxLive, j.live.Add(1))
	if child.leaves == 1 {
		j.dummies.Add(1)
	}
}

// trace records one engine-side event when tracing is on.
func (rt *Runtime) trace(w int, k rtrace.Kind, a, b, c int64) {
	if rt.probe != nil {
		rt.probe.Event(w, k, a, b, c)
	}
}

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// prioLess reports whether a precedes b in the 1DF order: dag.Before in
// ParentFirst polarity (each fork lands right after its forker, each job
// root after every earlier job), read off the fork tree with no lock.
// Every frame the walk reaches is live or, in a poisoned job, held by the
// GC — an ancestor cannot terminate before its descendants are joined, and
// releaseT pools nothing of a job whose parents unwind without joining.
func prioLess(a, b *T) bool { return dag.Before(a, b, (*T).up, dag.ParentFirst) }

// up is prioLess's accessor of t's place in the fork tree; it names a
// broken tree rather than dereferencing a recycled ancestor.
func (t *T) up() (*T, int, int64) {
	if t.depth > 0 && (t.parent == nil || t.parent.job != t.job) {
		panic("grt: prioLess reached a recycled ancestor (frame pooled while a descendant was live)")
	}
	return t.parent, t.depth, t.index
}

// ---- Thread-side API -----------------------------------------------------

// step resumes t on worker w and waits on w's yield channel until the
// thread that stops running on w — t, or a frame of its chain — hands the
// role back with the thread w runs next. Only the worker currently
// responsible for t may call it. This is the promotion point for dispatched
// threads: a thread reaches a worker only by being stolen, woken, or
// injected, and only then does it get a goroutine (and, if it never had
// one, a resume channel). Setting t.w first is what lets the resumed
// thread's inline code act as agent of worker w — the channel handoff
// orders the write against every thread-side read. t may still be running
// (it published itself — queued as a waiter, or on a deque it gave up —
// and has not yet handed its old worker back): resume's one-slot buffer
// takes the token regardless.
func (rt *Runtime) step(w int, t *T) *T {
	t.w = w
	if t.promote(0) {
		go t.main()
	}
	rt.handoffs[w].Add(1)
	// The send is the last touch of t: the moment it lands the chain is
	// running and may complete t, and a joining parent then recycles it.
	t.resume <- struct{}{}
	return <-rt.yield[w]
}

// promote makes a thread dispatchable by step: a worker about to start its
// goroutine (flavor 0), or a frame running inline, on its chain's
// goroutine, before it first publishes itself — blocks or gives up (flavor 1). It gets a
// resume channel if no earlier life left it one and counts as started, so no
// later join can claim it inline. It reports whether this call did that.
func (t *T) promote(flavor int64) bool {
	if t.started.Load() {
		return false
	}
	t.rt.trace(t.w, rtrace.EvPromote, t.tid, flavor, 0)
	t.start()
	return true
}

// start is promote's change without its record: a resume channel if no
// earlier life left t one, and the started mark.
func (t *T) start() {
	if t.resume == nil {
		t.resume = make(chan struct{}, 1)
	}
	t.started.Store(true)
}

// handBack returns worker w's role to it with next, the thread w runs
// instead of t (nil: w acquires), and waits for t's own dispatch — unless
// next is t, which just goes on. It ends every stop but termination: a
// block (suspend) and a give-up (resteal, joinInline after a dummy).
// t is published by then, so it uses w, never t.w, until resume. If the job
// was poisoned meanwhile, the thread dies instead of returning to user code:
// the sentinel panic unwinds the goroutine (running user defers on the way)
// and main reports the termination. That holds when next is t too: the
// cancel sweep may have republished a blocked t, and the pick took it back —
// no wake, so no lock held and no value set.
func (t *T) handBack(w int, next *T) {
	if next != t {
		t.rt.yield[w] <- next
		<-t.resume
	}
	if t.job.poisoned.Load() {
		panic(poisonSentinel)
	}
}

// suspend ends a block: t, promoted and queued as a waiter as agent of
// worker w, picks w's next thread and hands the role back.
func (t *T) suspend(w int) {
	t.handBack(w, t.rt.next(w))
}

// poisonSentinel is the panic value that unwinds a poisoned thread's
// goroutine: when a canceled job's thread is resumed, handBack panics with it,
// user frames unwind (their defers run), and main's recover swallows it —
// a poison unwind is the cancellation working, not a failure.
type poisonUnwind struct{}

var poisonSentinel poisonUnwind

// main is the thread goroutine's body.
func (t *T) main() {
	<-t.resume
	defer func() {
		if r := recover(); r != nil {
			if _, unwound := r.(poisonUnwind); !unwound {
				// Panic isolation: a panicking body fails and cancels its
				// own job — the rest of the job's tree drains (including
				// any threads parked on its locks); other jobs and the
				// workers are untouched.
				err := fmt.Errorf("grt: thread panicked: %v", r)
				t.job.fail(err)
				t.job.cancel(err)
			}
		}
		t.exit()
	}()
	if t.job.poisoned.Load() {
		return // canceled before its first dispatch: die without running
	}
	t.body(t)
	if len(t.unjoined) > 0 {
		panic(fmt.Sprintf("nested-parallel violation: %d forked children not joined", len(t.unjoined)))
	}
}

// exit is a dispatched thread's termination, run on its own goroutine as
// agent of its worker: the completion bookkeeping, the policy's Terminate,
// and the hand-back of what that picked. Everything it needs from the frame
// is read before finish: the moment finish publishes done, a joining parent
// on another worker may observe it, release the frame to the pool, and a
// third worker may already be reusing it. The live count drops before done
// is published, or a joiner polling isDone could fork while the dead thread
// still counts. A dummy's Terminate gives the deque up and makes a steal
// attempt (§3.3), recorded with the give-up's turn to stealing ahead of
// it: exit takes that attempt over itself, as resteal does, so the
// worker's acquire loop, which opens a hunt with an idle record, runs
// only when it failed.
func (t *T) exit() {
	rt, w, j, isRoot, dummy := t.rt, t.w, t.job, t.root, t.leaves == 1
	rt.trace(w, rtrace.EvComplete, t.tid, 0, 0)
	last := j.live.Add(-1) == 0
	woke := t.finish()
	if isRoot {
		// Nothing ever joins a job root, so its exit is its last referent
		// and recycles the frame itself.
		releaseT(t)
	}
	if last {
		rt.finishJob(w, j)
	}
	next, ok := rt.pol.Terminate(w, woke, woke != nil)
	if ok {
		// The pick publishes nothing (FIFO's pushes the woken parent and
		// takes the head: no net change), so it owes no wake.
		rt.trace(w, rtrace.EvDispatch, next.tid, rtrace.SrcTerminate, 0)
	} else {
		// The policy may have republished work (the dummy-thread give-up
		// leaves the deque stealable); signal now that the ready state the
		// parkers re-check is raised.
		next = nil
		rt.idle.signal()
		if dummy {
			if x, ok := rt.pol.Acquire(w); ok {
				next = x
				rt.acquired(time.Time{})
			}
		}
	}
	rt.yield[w] <- next
}

// Fork creates a child thread running body and keeps running the parent;
// the child runs when a worker steals it or, at the latest, at its Join.
// The returned handle must be passed to Join before the parent returns.
func (t *T) Fork(body func(*T)) *T {
	return t.fork(body, 0)
}

// fork is Fork with the child's count of dummy leaves (1: it is a dummy),
// which has to be written before ForkCont publishes the child to thieves.
func (t *T) fork(body func(*T), leaves int64) *T {
	child := t.rt.newT(body)
	child.job = t.job
	child.leaves = leaves
	t.unjoined = append(t.unjoined, child)
	// Publish the child, keep running the parent — no yield, no channel
	// handoff, no goroutine. The forking thread acts as agent of its worker
	// (which is parked in step while the thread runs, so per-worker policy
	// state has a single toucher).
	if t.job.poisoned.Load() {
		panic(poisonSentinel)
	}
	rt := t.rt
	rt.noteFork(t, child)
	rt.pol.ForkCont(t.w, t, child) // records the fork
	rt.idle.signal()
	return child
}

// Join waits for the most recent unjoined child (which must equal h) to
// terminate. Joins are LIFO, matching the nested-parallel model.
//
// Join is a child frame's release point: once isDone is observed the
// joining parent holds the last reference (the terminating worker stops
// touching the frame before finish publishes done), so the frame goes
// back to the pool here. h must not be used after Join returns.
//
// The work-first payoff is the inline claim: if the child is still exactly
// where Fork put it — the top of this worker's own deque, untouched by
// thieves, undisplaced by woken threads — the conditional pop removes it
// there and the parent runs the child's body in its own frame, paying no
// channel handoff and no goroutine. Otherwise the child is live elsewhere
// (stolen, or a global-queue policy owns it) and the parent, promoted,
// registers as its waiter and suspends — unless the registration finds it
// done. A dummy is claimed like any other child (its end republishes the
// joiner: joinInline).
func (t *T) Join(h *T) {
	if len(t.unjoined) == 0 || t.unjoined[len(t.unjoined)-1] != h {
		panic("grt: Join order must be LIFO with the thread's own children")
	}
	t.unjoined = t.unjoined[:len(t.unjoined)-1]
	rt := t.rt
	for {
		if h.isDone() {
			releaseT(h)
			return
		}
		if t.job.poisoned.Load() {
			panic(poisonSentinel)
		}
		if !h.started.Load() && rt.pol.JoinPop(t.w, t, h) {
			// The parent logically suspends and the child is dispatched
			// in its place — JoinPop records the same block/dispatch pair
			// a suspended join emits, so dispatch conservation holds.
			t.joinInline(h)
			// The child ran to completion in this frame; skip the
			// loop-top re-check and release it directly.
			releaseT(h)
			return
		}
		w := t.w
		t.promote(1) // before registering: h's exit may dispatch t at once
		if !h.registerWaiter(w, t) {
			t.suspend(w)
		}
	}
}

// joinInline runs the claimed child's body in the parent's goroutine. The
// completion bookkeeping mirrors exit minus the
// impossible cases: an inline child cannot be a job root, cannot have a
// registered waiter (only its parent joins it, and the parent is here),
// and cannot be its job's last live thread (the parent is still live).
// The deferred half runs on panic unwinds too — user panics and poison
// both propagate to the chain's base, and every inline frame they unwind
// through is completed on the way — so thread accounting and the trace's
// dispatch conservation survive cancellation mid-chain. After a dummy the
// policy picks what runs next (§3.3's give-up, Terminate): the joiner
// itself only if the dummy died poisoned, before its Dummy call.
func (t *T) joinInline(c *T) {
	rt := t.rt
	c.w = t.w
	defer func() {
		// The child may have parked and been redispatched on another
		// worker mid-body; its w is then the chain's current worker, and
		// the parent inherits it.
		t.w = c.w
		// finish() minus the waiter hand-off: an inline child has none, so
		// no other worker observes its end, and its completion and the
		// parent's dispatch are one burst.
		c.done.Store(true)
		c.job.live.Add(-1)
		w := t.w
		if c.leaves != 1 {
			rt.trace(w, rtrace.BurstReturnInline, c.tid, t.tid, 0)
			return
		}
		rt.trace(w, rtrace.EvComplete, c.tid, 0, 0) // the give-up's one clock read
		if next, ok := rt.pol.Terminate(w, t, true); !ok {
			t.resteal(w) // DFDeques: t is pushed, the deque given up, a steal tried
		} else {
			rt.trace(w, rtrace.EvDispatch, next.tid, rtrace.SrcTerminate, 0)
			t.handBack(w, next)
		}
	}()
	c.body(c)
	if len(c.unjoined) > 0 {
		panic(fmt.Sprintf("nested-parallel violation: %d forked children not joined", len(c.unjoined)))
	}
}

// ForkJoin forks body and immediately joins it.
func (t *T) ForkJoin(body func(*T)) {
	t.Join(t.Fork(body))
}

// Alloc charges n bytes against the runtime's heap accounting and the
// scheduler's memory quota. Allocations larger than the memory threshold K
// first fork the paper's dummy-thread tree (§3.3), delaying the allocation
// so higher-priority threads can run.
func (t *T) Alloc(n int64) {
	if n <= 0 {
		return
	}
	rt := t.rt
	if k := rt.threshold; k > 0 && n > k {
		leaves := policy.DummyLeaves(n, k)
		t.forkDummies(leaves)
		if t.job.poisoned.Load() {
			panic(poisonSentinel)
		}
		rt.trace(t.w, rtrace.EvAllocExempt, t.tid, n, leaves)
		t.job.charge(n)
		return
	}
	// Charge the quota inline; on a veto the thread goes back on its deque,
	// gives the deque up and steals (§3.3), and the loop retries once a
	// dispatch — its own re-steal, most often — has refilled the quota.
	// From Preempt on t is any worker's to dispatch: use w, not t.w.
	for {
		if t.job.poisoned.Load() {
			panic(poisonSentinel)
		}
		if rt.pol.Charge(t.w, n) {
			rt.trace(t.w, rtrace.EvAlloc, t.tid, n, 0)
			t.job.charge(n)
			return
		}
		w := t.w
		// A first stop promotes t (flavor 1); Preempt records that with
		// the veto, and the turn to stealing ahead of its steal.
		promoted := !t.started.Load()
		if promoted {
			t.start()
		}
		t.job.preempts.Add(1)
		rt.pol.Preempt(w, t, n, promoted)
		t.resteal(w)
	}
}

// Touch declares that the thread reads or writes `bytes` bytes of data
// block blk — the runtime's locality declaration, mirroring the
// simulator's OpWork (Blk, TouchBytes) footprint. When a trace probe is
// installed the touch is recorded on the executing worker's lane, which
// is what feeds the parallel cache-complexity replay (rtrace.Summarize's
// Cache report). Without a probe Touch returns immediately — no yield,
// no scheduling point — so untraced runs schedule exactly as before.
func (t *T) Touch(blk int32, bytes int64) {
	if t.rt.probe == nil || blk == 0 || bytes <= 0 {
		return
	}
	if t.job.poisoned.Load() {
		panic(poisonSentinel)
	}
	t.rt.trace(t.w, rtrace.EvTouch, t.tid, int64(blk), bytes)
}

// Free returns n bytes to the heap accounting (and the quota, which
// bounds *net* allocation).
func (t *T) Free(n int64) {
	if n <= 0 {
		return
	}
	rt := t.rt
	if t.job.poisoned.Load() {
		panic(poisonSentinel)
	}
	rt.trace(t.w, rtrace.EvFree, t.tid, n, 0)
	rt.pol.Credit(t.w, n)
	t.job.charge(-n)
}

// forkDummies forks a binary tree with n dummy leaves and joins it — the
// same shape policy.SplitDummies gives the simulator's transformation, so
// thread and dummy counts agree with the simulator's.
func (t *T) forkDummies(n int64) {
	body := (*T).dummyNode
	if n == 1 {
		body = (*T).dummyPoint
		t.promote(1) // the dummy's termination republishes t (joinInline): promote it while it still runs
	}
	t.Join(t.fork(body, n))
}

// dummyNode is the body of an interior node of the dummy tree.
func (t *T) dummyNode() {
	l, r := policy.SplitDummies(t.leaves)
	t.forkDummies(l)
	t.forkDummies(r)
}

// dummyPoint is a dummy leaf's one scheduling event (§3.3): the give-up mark,
// set inline as agent of the running worker and consumed by the Terminate
// after the dummy's completion — the joiner's when it claimed the dummy
// inline (joinInline), its own exit's when a thief took it first.
func (t *T) dummyPoint() {
	if t.job.poisoned.Load() {
		panic(poisonSentinel)
	}
	t.rt.trace(t.w, rtrace.EvDummy, t.tid, 0, 0)
	t.rt.pol.Dummy(t.w)
}
