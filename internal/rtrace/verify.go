package rtrace

import (
	"fmt"
	"slices"

	"dfdeques/internal/dag"
)

// Verify replays a recorded event stream against an independent model of
// the scheduler and checks three properties on the recorded history of
// either engine, the live runtime's or the simulator's:
//
//   - Lemma 3.1 ordering: the deque list R stays priority-sorted left to
//     right, every deque is internally sorted (top = highest 1DF
//     priority), a worker's executing thread has higher priority than
//     everything in its own deque, and a steal takes the bottom of a deque
//     among the leftmost p of R (§3.3). The 1DF order itself is
//     reconstructed from the fork and job-begin events, as a fork tree of
//     the stream's own that dag.Before reads in the engine's polarity
//     (see Engine below); the engines' own tree fields are never read.
//   - Dispatch conservation: every thread is dispatched exactly
//     1 + suspensions times (a suspension is a join/lock/future block, a
//     quota preemption or a child-first fork), threads only run from a
//     legal source (own-deque pop or inline claim, steal, queue take, join
//     wake-up of a completed child's waiter, the child of a child-first
//     fork), never on two workers at once, and every thread completes
//     exactly once.
//   - Quota accounting: replaying the per-worker K-byte quota (reset on
//     steal for DFDeques, on dispatch for ADF; credits clamped to K),
//     every recorded allocation must fit the modeled remainder and every
//     recorded quota-exhaust preemption must be forced by it; dummy
//     trees must carry exactly ⌈n/K⌉ leaves.
//
// The quota and deque models here are deliberately *reimplementations*,
// not imports of internal/policy: the verifier proves the engines and the
// policy layer did what the paper says, so it must not share their code.
//
// Structural events are recorded while the mutating lock is held and
// sequenced by one atomic counter, so replaying in Seq order replays a
// true linearization of the scheduler's history. Programs that block on
// Mutexes or Futures (the §5 extension beyond nested parallelism) have
// weaker ordering guarantees; on the first non-join block the ordering
// checks are disabled (Report.OrderingExact=false) while conservation and
// quota checks continue.
//
// Persistent-runtime streams carry job lifecycle events: each EvJobBegin
// introduces a root thread (lowest 1DF priority — a root comes after every
// earlier root and its descendants), EvJobEnd asserts every
// thread of that job completed, and EvJobCancel marks a poison-canceled
// job — canceled threads still drain through ordinary dispatches and
// completions, so conservation and quota checks hold for them unchanged.
//
// Engine. Meta.Engine names the model; a stream stamped otherwise, or not
// at all, is rejected rather than replayed under the wrong one. EngineCont
// is the runtime's work-first continuation engine: parent-first, so a
// forked thread is the immediate 1DF successor of its forker (the paper's
// pushed parent), a fork pushes the never-dispatched child while the
// parent keeps running, EvPromote marks a thread's unique transition to a
// goroutine-backed frame, and inline-claimed children are dispatched with
// SrcInline. EngineSim is the simulator, read in the paper's child-first
// order. Under DFDeques and ADF its fork suspends the parent, which the
// policy publishes next, and dispatches the child on the forking worker
// (under ADF with a dispatch's fresh quota: ADF.ForkChildFirst's refill);
// its FIFO forks parent-first. Its joins only suspend, and its give-up
// leaves the steal to the next round (§4.1): both are runtime paths too.
func Verify(meta Meta, evs []Event, dropped uint64) (Report, error) {
	v := &verifier{meta: meta, rep: Report{Events: len(evs), OrderingExact: true}, order: dag.ParentFirst}
	switch meta.Engine {
	case EngineCont:
	case EngineSim:
		v.order, v.childFirst = dag.ChildFirst, meta.Policy != "FIFO"
	default:
		return v.rep, fmt.Errorf("rtrace: stream was recorded by engine %q, which this build no longer models (only %q and %q streams can be replayed)", meta.Engine, EngineCont, EngineSim)
	}
	if dropped > 0 {
		return v.rep, fmt.Errorf("rtrace: %d events dropped by ring wrap-around; raise the trace buffer to verify this run", dropped)
	}
	if len(evs) == 0 {
		return v.rep, fmt.Errorf("rtrace: empty event stream")
	}
	switch meta.Policy {
	case "DFDeques", "ADF", "FIFO":
	default:
		return v.rep, fmt.Errorf("rtrace: unknown policy %q in trace metadata", meta.Policy)
	}
	if meta.Workers < 1 {
		return v.rep, fmt.Errorf("rtrace: bad worker count %d in trace metadata", meta.Workers)
	}
	v.init()
	var last uint64
	for i := range evs {
		e := &evs[i]
		if e.Seq <= last {
			return v.rep, fmt.Errorf("rtrace: stream not strictly Seq-ordered at #%d (after #%d): duplicate or reordered records", e.Seq, last)
		}
		last = e.Seq
		if err := v.step(e); err != nil {
			return v.rep, err
		}
	}
	return v.rep, v.final()
}

// Report summarizes what a Verify pass established.
type Report struct {
	Events        int
	Threads       int64
	DummyThreads  int64
	Jobs          int64 // job-begin events
	CanceledJobs  int64 // jobs poison-canceled before completion
	Dispatches    int64
	Steals        int64
	QuotaExhausts int64
	Checks        int64 // individual assertions evaluated
	OrderingExact bool  // false when lock/future blocks disabled ordering checks
	Notes         []string
}

// Thread lifecycle states in the replay model.
type tstate uint8

const (
	tNew      tstate = iota // forked, never scheduled
	tReady                  // in a deque or queue
	tRunning                // executing on a worker
	tBlocked                // suspended on a join/lock/future
	tPreempt                // preempted by a quota veto or a child-first fork, not yet republished
	tInflight               // removed from a structure, dispatch pending
	tDone
)

type vthread struct {
	state      tstate
	on         int   // worker (tRunning/tInflight)
	job        int64 // owning job id
	dummy      bool
	promoted   bool  // goroutine frame exists
	waitee     int64 // tid being joined (tBlocked on join), else -1
	dispatches int64
	suspends   int64 // blocks + preemptions
	// The thread's place in the fork tree, rebuilt from the stream's fork
	// and job-begin records (a root: no parent, index in begin order);
	// forks counts the thread's own forks.
	parent       *vthread
	depth        int
	index, forks int64
}

func (t *vthread) pos() (*vthread, int, int64) { return t.parent, t.depth, t.index }

// vjob tracks one submitted job's lifecycle through the replay.
type vjob struct {
	root     int64
	canceled bool
	ended    bool
}

type vdeque struct {
	items []int64 // bottom..top
	owner int     // -1 unowned
}

type verifier struct {
	meta Meta
	rep  Report

	roots   int64 // job roots begun so far
	threads map[int64]*vthread
	jobs    map[int64]*vjob

	// DFDeques: the ordered list R. ADF/FIFO: the global queue.
	deques map[int64]*vdeque
	r      []int64 // deque ids left (highest priority) to right
	queue  []int64 // tids in arrival order (FIFO) / checked by priority (ADF)

	running []int64 // running tid per worker, -1 if none
	owned   []int64 // owned deque id per worker, -1 if none (DFDeques)
	quota   []int64 // modeled remaining quota per worker

	ordered bool // ordering checks active

	// order is the engine's 1DF polarity; childFirst is set when its forks
	// run the child first and republish the parent.
	order      dag.Order
	childFirst bool
}

func (v *verifier) init() {
	v.threads = map[int64]*vthread{}
	v.jobs = map[int64]*vjob{}
	v.deques = map[int64]*vdeque{}
	v.running = make([]int64, v.meta.Workers)
	v.owned = make([]int64, v.meta.Workers)
	v.quota = make([]int64, v.meta.Workers)
	for i := range v.running {
		v.running[i], v.owned[i] = -1, -1
	}
	v.ordered = true
}

func (v *verifier) fail(e *Event, format string, args ...any) error {
	return fmt.Errorf("rtrace: replay violation at %s: %s", e, fmt.Sprintf(format, args...))
}

func (v *verifier) thread(e *Event, tid int64) (*vthread, error) {
	t, ok := v.threads[tid]
	if !ok {
		return nil, v.fail(e, "unknown thread t%d", tid)
	}
	return t, nil
}

// runningThread returns thread e.A, which must be running on e's worker; what
// names the record in the error ("fork by", "block of", ...).
func (v *verifier) runningThread(e *Event, what string) (*vthread, error) {
	t, err := v.thread(e, e.A)
	if err == nil && (t.state != tRunning || t.on != int(e.W)) {
		err = v.fail(e, "%s t%d which is not running on w%d", what, e.A, e.W)
	}
	return t, err
}

func (v *verifier) deque(e *Event, did int64) (*vdeque, error) {
	d, ok := v.deques[did]
	if !ok {
		return nil, v.fail(e, "unknown deque %d", did)
	}
	return d, nil
}

// before reports whether thread a has higher 1DF priority than b, in the
// engine's order.
func (v *verifier) before(a, b int64) bool {
	return dag.Before(v.threads[a], v.threads[b], (*vthread).pos, v.order)
}

// hasQuota reports whether the traced policy runs a memory quota.
func (v *verifier) hasQuota() bool {
	return v.meta.K > 0 && (v.meta.Policy == "DFDeques" || v.meta.Policy == "ADF")
}

// offWorker is the set of kinds the engines record on lane -1, outside
// any worker: submission and cancellation (under the submission lock),
// the injectors' publishes and the simulator's threshold moves. Every
// other kind indexes per-worker state.
const offWorker = 1<<EvJobBegin | 1<<EvJobAnnotate | 1<<EvJobCancel | 1<<EvThreshold |
	1<<EvDequeCreate | 1<<EvPush | 1<<EvQueuePush

func (v *verifier) step(e *Event) error {
	w := int(e.W)
	if w < -1 || w >= v.meta.Workers {
		return v.fail(e, "worker index out of range")
	}
	if w == -1 && offWorker&(1<<e.Kind) == 0 {
		return v.fail(e, "%s recorded outside a worker", e.Kind)
	}
	v.rep.Checks++
	switch e.Kind {
	case EvFork:
		parent, err := v.runningThread(e, "fork by")
		if err != nil {
			return err
		}
		if _, dup := v.threads[e.B]; dup {
			return v.fail(e, "forked thread t%d already exists", e.B)
		}
		child := &vthread{
			state: tNew, on: -1, waitee: -1, dummy: e.C == 1, job: parent.job,
			parent: parent, depth: parent.depth + 1, index: parent.forks,
		}
		v.threads[e.B] = child
		parent.forks++
		if v.childFirst {
			// The parent stops until the policy republishes it; the child
			// is dispatched on w next.
			parent.state = tPreempt
			parent.suspends++
			child.state, child.on = tInflight, w
			v.running[w] = -1
		}
		v.rep.Threads++
		if e.C == 1 {
			v.rep.DummyThreads++
		}

	case EvDispatch:
		t, err := v.thread(e, e.A)
		if err != nil {
			return err
		}
		if v.running[w] != -1 {
			return v.fail(e, "dispatch on w%d which is already running t%d", w, v.running[w])
		}
		switch {
		case t.state == tInflight && t.on == w:
		case e.B == SrcTerminate && t.state == tBlocked:
			// Join hand-off: the waitee must have terminated.
			if t.waitee >= 0 && v.threads[t.waitee].state != tDone {
				return v.fail(e, "t%d dispatched while its join target t%d is not done", e.A, t.waitee)
			}
		default:
			return v.fail(e, "t%d dispatched from illegal state %d (src %d)", e.A, t.state, e.B)
		}
		t.state, t.on, t.waitee = tRunning, w, -1
		t.dispatches++
		v.rep.Dispatches++
		v.running[w] = e.A
		if v.meta.Policy == "ADF" {
			v.quota[w] = v.meta.K // fresh quota per dispatch (footnote 14)
		}
		return v.checkOrdering(e)

	case EvBlock:
		t, err := v.runningThread(e, "block of")
		if err != nil {
			return err
		}
		t.state = tBlocked
		t.suspends++
		if e.B == BlockJoin {
			if _, err := v.thread(e, e.C); err != nil {
				return err
			}
			t.waitee = e.C
		} else if v.ordered {
			v.ordered = false
			v.rep.OrderingExact = false
			v.rep.Notes = append(v.rep.Notes,
				"stream contains lock/future blocks (§5 extension): ordering checks disabled from "+e.String())
		}
		v.running[w] = -1

	case EvComplete:
		t, err := v.runningThread(e, "completion of")
		if err != nil {
			return err
		}
		t.state = tDone
		v.running[w] = -1

	case EvAlloc:
		if _, err := v.runningThread(e, "alloc by"); err != nil {
			return err
		}
		if v.hasQuota() {
			if e.B > v.quota[w] {
				return v.fail(e, "alloc of %d bytes exceeds w%d's modeled quota %d — the policy should have preempted", e.B, w, v.quota[w])
			}
			v.quota[w] -= e.B
		}

	case EvAllocExempt:
		if _, err := v.runningThread(e, "exempt alloc by"); err != nil {
			return err
		}
		if k := v.meta.K; k > 0 {
			if want := (e.B + k - 1) / k; e.C != want {
				return v.fail(e, "dummy tree for %d bytes has %d leaves, want ⌈n/K⌉ = %d", e.B, e.C, want)
			}
		}

	case EvFree:
		if v.hasQuota() {
			v.quota[w] += e.B
			if v.quota[w] > v.meta.K {
				v.quota[w] = v.meta.K // credits bound *net* allocation
			}
		}

	case EvQuotaExhaust:
		t, err := v.runningThread(e, "preemption of")
		if err != nil {
			return err
		}
		if !v.hasQuota() {
			return v.fail(e, "quota exhaustion under policy %s with K=%d, which has no quota", v.meta.Policy, v.meta.K)
		}
		if e.B <= v.quota[w] {
			return v.fail(e, "quota exhaustion on an alloc of %d bytes that fits w%d's modeled quota %d", e.B, w, v.quota[w])
		}
		t.state = tPreempt
		t.suspends++
		v.running[w] = -1
		v.rep.QuotaExhausts++

	case EvTouch:
		if _, err := v.runningThread(e, "touch by"); err != nil {
			return err
		}
		if e.B == 0 || e.C <= 0 {
			return v.fail(e, "touch with empty footprint (blk=%d bytes=%d)", e.B, e.C)
		}

	case EvDummy:
		t, err := v.thread(e, e.A)
		if err != nil {
			return err
		}
		if !t.dummy {
			return v.fail(e, "dummy execution by t%d which was not forked as a dummy", e.A)
		}
		if v.meta.Policy == "ADF" {
			v.quota[w] = 0 // the dummy consumed the dispatch's quota
		}

	case EvPromote:
		// Both flavors — B=0, the dispatching worker spawning the frame's
		// goroutine; B=1, an inline frame borrowing its chain base's
		// channels to block — happen while the thread runs on the
		// recording worker: dispatch precedes the B=0 promote, and an
		// inline frame only parks from inside its own body.
		t, err := v.runningThread(e, "promotion of")
		if err != nil {
			return err
		}
		if t.promoted {
			return v.fail(e, "t%d promoted twice", e.A)
		}
		if e.B != 0 && e.B != 1 {
			return v.fail(e, "promotion with unknown flavor %d", e.B)
		}
		t.promoted = true

	case EvJobBegin:
		if w != -1 {
			return v.fail(e, "job begin on a worker lane (must be scheduler-side)")
		}
		if _, dup := v.jobs[e.A]; dup {
			return v.fail(e, "job %d already begun", e.A)
		}
		if _, dup := v.threads[e.B]; dup {
			return v.fail(e, "job %d root t%d already exists", e.A, e.B)
		}
		// A root comes after everything begun before it: lowest priority.
		v.roots++
		v.threads[e.B] = &vthread{
			state: tNew, on: -1, waitee: -1, job: e.A, index: v.roots,
		}
		v.rep.Threads++
		v.jobs[e.A] = &vjob{root: e.B}
		v.rep.Jobs++

	case EvJobAnnotate:
		if w != -1 {
			return v.fail(e, "job annotation on a worker lane (must be scheduler-side)")
		}
		if _, ok := v.jobs[e.A]; !ok {
			return v.fail(e, "annotation of unknown job %d", e.A)
		}
		// Tags are opaque submitter metadata; nothing further to model.

	case EvThreshold:
		v.meta.K = e.A

	case EvJobCancel:
		j, ok := v.jobs[e.A]
		if !ok {
			return v.fail(e, "cancel of unknown job %d", e.A)
		}
		// A cancel can land just after the job's natural completion (the
		// context watcher races the last thread); it is then a no-op.
		if !j.ended && !j.canceled {
			j.canceled = true
			v.rep.CanceledJobs++
		}

	case EvJobEnd:
		j, ok := v.jobs[e.A]
		if !ok {
			return v.fail(e, "end of unknown job %d", e.A)
		}
		if j.ended {
			return v.fail(e, "job %d ended twice", e.A)
		}
		j.ended = true
		for tid, t := range v.threads {
			if t.job == e.A && t.state != tDone {
				return v.fail(e, "job %d ended with t%d in state %d (not done)", e.A, tid, t.state)
			}
		}

	case EvIdle, EvStealAttempt:
		// Informational only (a steal's success is a separate EvSteal).

	case EvSteal:
		t, err := v.thread(e, e.A)
		if err != nil {
			return err
		}
		victim, err := v.deque(e, e.B)
		if err != nil {
			return err
		}
		if i := slices.Index(v.r, e.B); i >= v.meta.Workers {
			return v.fail(e, "steal from deque %d at position %d of R, outside the leftmost p = %d", e.B, i, v.meta.Workers)
		}
		if len(victim.items) == 0 || victim.items[0] != e.A {
			return v.fail(e, "steal of t%d which is not the bottom of deque %d", e.A, e.B)
		}
		victim.items = victim.items[1:]
		if t.state != tReady {
			return v.fail(e, "stolen thread t%d was not ready", e.A)
		}
		t.state, t.on = tInflight, w
		v.rep.Steals++
		if v.owned[w] != -1 {
			return v.fail(e, "w%d stole while owning deque %d", w, v.owned[w])
		}
		if e.C < 0 {
			return v.fail(e, "steal without a new deque")
		}
		if _, dup := v.deques[e.C]; dup {
			return v.fail(e, "new deque %d already exists", e.C)
		}
		v.deques[e.C] = &vdeque{owner: w}
		if err := v.insertRight(e, e.B, e.C); err != nil {
			return err
		}
		v.owned[w] = e.C
		v.quota[w] = v.meta.K // fresh quota per steal (§3.3)
		return v.checkOrdering(e)

	case EvDequeCreate:
		if v.meta.Policy != "DFDeques" {
			return v.fail(e, "deque creation under policy %s", v.meta.Policy)
		}
		if _, dup := v.deques[e.A]; dup {
			return v.fail(e, "created deque %d already exists", e.A)
		}
		v.deques[e.A] = &vdeque{owner: -1}
		if e.B < 0 {
			v.r = append([]int64{e.A}, v.r...)
		} else if err := v.insertRight(e, e.B, e.A); err != nil {
			return err
		}
		return v.checkOrdering(e)

	case EvDequeRelease:
		d, err := v.deque(e, e.A)
		if err != nil {
			return err
		}
		if d.owner != w {
			return v.fail(e, "deque %d released by w%d but owned by %d", e.A, w, d.owner)
		}
		d.owner = -1
		v.owned[w] = -1

	case EvDequeRetire:
		d, err := v.deque(e, e.A)
		if err != nil {
			return err
		}
		if len(d.items) != 0 {
			return v.fail(e, "retirement of non-empty deque %d (%d items)", e.A, len(d.items))
		}
		if d.owner >= 0 {
			v.owned[d.owner] = -1
		}
		delete(v.deques, e.A)
		v.r = slices.DeleteFunc(v.r, func(id int64) bool { return id == e.A })

	case EvPush:
		t, err := v.thread(e, e.A)
		if err != nil {
			return err
		}
		d, err := v.deque(e, e.B)
		if err != nil {
			return err
		}
		if w >= 0 && d.owner != w && d.owner != -1 {
			return v.fail(e, "push into deque %d owned by %d from w%d", e.B, d.owner, w)
		}
		switch t.state {
		case tNew, tPreempt, tBlocked:
			// tNew: a fork pushing the never-dispatched child (the parent
			// keeps running — no suspension), or a root's injection.
		default:
			return v.fail(e, "push of t%d from illegal state %d", e.A, t.state)
		}
		if v.ordered && len(d.items) > 0 {
			top := d.items[len(d.items)-1]
			if !v.before(e.A, top) {
				return v.fail(e, "push of t%d under-prioritizes deque %d's top t%d", e.A, e.B, top)
			}
		}
		d.items = append(d.items, e.A)
		t.state, t.on = tReady, -1
		return v.checkOrdering(e)

	case EvPop:
		t, err := v.thread(e, e.A)
		if err != nil {
			return err
		}
		d, err := v.deque(e, e.B)
		if err != nil {
			return err
		}
		if d.owner != w {
			return v.fail(e, "pop from deque %d owned by %d on w%d", e.B, d.owner, w)
		}
		if len(d.items) == 0 || d.items[len(d.items)-1] != e.A {
			return v.fail(e, "pop of t%d which is not the top of deque %d", e.A, e.B)
		}
		d.items = d.items[:len(d.items)-1]
		if t.state != tReady {
			return v.fail(e, "popped thread t%d was not ready", e.A)
		}
		t.state, t.on = tInflight, w

	case EvQueuePush:
		t, err := v.thread(e, e.A)
		if err != nil {
			return err
		}
		switch t.state {
		case tNew, tPreempt, tBlocked:
		default:
			return v.fail(e, "queue push of t%d from illegal state %d", e.A, t.state)
		}
		t.state, t.on = tReady, -1
		v.queue = append(v.queue, e.A)

	case EvQueueTake:
		t, err := v.thread(e, e.A)
		if err != nil {
			return err
		}
		idx := slices.Index(v.queue, e.A)
		if idx < 0 {
			return v.fail(e, "take of t%d which is not queued", e.A)
		}
		if v.ordered {
			switch v.meta.Policy {
			case "ADF":
				for _, tid := range v.queue {
					if tid != e.A && v.before(tid, e.A) {
						return v.fail(e, "ADF take of t%d while higher-priority t%d is queued", e.A, tid)
					}
				}
			case "FIFO":
				if idx != 0 {
					return v.fail(e, "FIFO take of t%d which is not the queue head (t%d is)", e.A, v.queue[0])
				}
			}
		}
		v.queue = append(v.queue[:idx], v.queue[idx+1:]...)
		if t.state != tReady {
			return v.fail(e, "taken thread t%d was not ready", e.A)
		}
		t.state, t.on = tInflight, w

	default:
		return v.fail(e, "unknown event kind %d", e.Kind)
	}
	return nil
}

// insertRight places deque did immediately to the right of after in R.
func (v *verifier) insertRight(e *Event, after, did int64) error {
	i := slices.Index(v.r, after)
	if i < 0 {
		return v.fail(e, "insert right of deque %d which is not in R", after)
	}
	v.r = slices.Insert(v.r, i+1, did)
	return nil
}

// checkOrdering verifies the Lemma 3.1 invariants over the replayed
// structure after a structural event.
func (v *verifier) checkOrdering(e *Event) error {
	if !v.ordered {
		return nil
	}
	v.rep.Checks++
	// Each deque internally sorted: top (last) is the highest priority, so
	// a bottom-steal takes the lowest.
	for did, d := range v.deques {
		for i := 0; i+1 < len(d.items); i++ {
			if !v.before(d.items[i+1], d.items[i]) {
				return v.fail(e, "deque %d not internally sorted: t%d above t%d", did, d.items[i+1], d.items[i])
			}
		}
	}
	// R sorted left to right (the queue policies have no deques): every
	// thread in a deque has higher priority than everything right of it.
	// Comparing each deque's lowest-priority item (its bottom) with the
	// next non-empty deque's highest-priority item (its top) covers all
	// pairs.
	prevLowest := int64(-1)
	for _, did := range v.r {
		d := v.deques[did]
		if len(d.items) == 0 {
			continue
		}
		highest, lowest := d.items[len(d.items)-1], d.items[0]
		if prevLowest >= 0 && !v.before(prevLowest, highest) {
			return v.fail(e, "R out of order: t%d (left) does not precede t%d (right)", prevLowest, highest)
		}
		prevLowest = lowest
	}
	// An executing thread has higher priority than everything in its
	// worker's deque (the deque holds the closures it and its ancestors
	// forked, each the 1DF successor of its forker).
	for w, tid := range v.running {
		if tid < 0 || v.owned[w] < 0 {
			continue
		}
		d := v.deques[v.owned[w]]
		if len(d.items) == 0 {
			continue
		}
		top := d.items[len(d.items)-1]
		if !v.before(tid, top) {
			return v.fail(e, "running t%d on w%d under-prioritizes its deque top t%d", tid, w, top)
		}
	}
	return nil
}

// final checks end-of-run conservation: everything completed, nothing
// left in any structure, and the per-thread dispatch count identity.
func (v *verifier) final() error {
	if len(v.jobs) == 0 {
		return fmt.Errorf("rtrace: stream has no job-begin record: truncated, or not recorded by this runtime")
	}
	for tid, t := range v.threads {
		if t.state != tDone {
			return fmt.Errorf("rtrace: thread t%d never completed (final state %d): truncated or corrupt stream", tid, t.state)
		}
		if t.dispatches != 1+t.suspends {
			return fmt.Errorf("rtrace: dispatch conservation violated for t%d: %d dispatches, %d suspensions (want dispatches = 1 + suspensions)",
				tid, t.dispatches, t.suspends)
		}
	}
	for did, d := range v.deques {
		if len(d.items) != 0 {
			return fmt.Errorf("rtrace: deque %d still holds %d threads at end of run", did, len(d.items))
		}
	}
	if len(v.deques) != 0 {
		return fmt.Errorf("rtrace: %d deques never retired", len(v.deques))
	}
	if len(v.queue) != 0 {
		return fmt.Errorf("rtrace: %d threads still queued at end of run", len(v.queue))
	}
	for id, j := range v.jobs {
		if !j.ended {
			return fmt.Errorf("rtrace: job %d (root t%d) never ended: truncated stream or leaked job", id, j.root)
		}
	}
	return nil
}
