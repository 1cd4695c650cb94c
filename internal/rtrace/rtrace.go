// Package rtrace is the concurrent runtime's observability subsystem: a
// low-overhead event recorder for real executions (internal/grt), the
// concurrent analogue of the simulator's per-event trace (cmd/dfdtrace).
//
// Each worker writes fixed-size binary event records — dispatches, steal
// attempts and successes, quota exhaustions, deque creation/retirement,
// dummy splits, thread completions — into a private ring buffer: the hot
// path takes no locks and touches no shared memory except one atomic
// sequence counter, which is what makes the merged stream totally ordered.
// Structural events (anything that mutates the deque list R or a ready
// queue) are recorded while the mutating lock is held, so the sequence
// order is a true linearization of the structure's history; that is what
// lets the post-hoc verifier (verify.go) replay R and check the paper's
// Lemma 3.1 ordering, dispatch conservation, and quota accounting on real
// runs. The exporter (export.go) turns the same stream into Chrome
// trace_event JSON (chrome://tracing, Perfetto) plus a metrics summary.
//
// Recording is gated by a nil Probe: one predictable branch per
// scheduling event.
package rtrace

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Kind identifies one event type. The A/B/C payload meaning per kind is
// documented on each constant; ids are thread ids (tids, 1-based), deque
// ids (dids, 1-based), or byte counts.
type Kind uint8

const (
	// EvFork: thread A forked thread B on worker W; C=1 if B is a dummy
	// leaf of the §3.3 big-allocation transformation.
	EvFork Kind = iota
	// EvDispatch: worker W began executing thread A. B is the dispatch
	// source: SrcNext (after the previous thread suspended), SrcTerminate
	// (join-woken parent handed off), SrcAcquire (after an idle acquire),
	// SrcInline (claimed at its parent's Join).
	EvDispatch
	// EvBlock: thread A suspended on worker W. B is the reason (Block*);
	// for BlockJoin, C is the tid of the child being joined.
	EvBlock
	// EvComplete: thread A terminated on worker W.
	EvComplete
	// EvAlloc: thread A charged B bytes against the quota on worker W.
	EvAlloc
	// EvAllocExempt: thread A performed a quota-exempt allocation of B
	// bytes on worker W — the delayed big allocation after its dummy
	// tree; C is the dummy-leaf count of that tree (the "dummy split").
	EvAllocExempt
	// EvFree: thread A returned B bytes on worker W.
	EvFree
	// EvQuotaExhaust: worker W's quota vetoed thread A's allocation of B
	// bytes; the thread is preempted (§3.3 "memory quota exhausted").
	EvQuotaExhaust
	// EvDummy: thread A, a dummy, executed on worker W (the worker must
	// give up its deque at the dummy's termination).
	EvDummy
	// EvIdle: worker W ran out of local work and turned to stealing: drawn
	// at the head of the worker's acquire loop, and — the give-up's spine
	// section contains its steal attempt — ahead of a give-up a thread makes
	// inline (quota exhaustion, a dummy claimed at the join), so it precedes
	// the steal's records there. It reads no clock (see exactTS).
	EvIdle
	// EvStealAttempt: worker W made one steal attempt; A is the victim
	// deque id, or -1 if the pick found no deque.
	EvStealAttempt
	// EvSteal: worker W stole thread A from the bottom of deque B; C is
	// the new deque created for W immediately right of B.
	EvSteal
	// EvDequeCreate: deque A entered R immediately right of deque B (B=-1:
	// at the left end). C=1 when the deque was created mid-run, to hold a
	// woken thread at its priority position or an injected one at the
	// right end; C=0 for the seed.
	EvDequeCreate
	// EvDequeRelease: worker W gave up ownership of deque A, leaving it in
	// R unowned and stealable.
	EvDequeRelease
	// EvDequeRetire: empty deque A left R.
	EvDequeRetire
	// EvPush: thread A was pushed on top of deque B by worker W.
	EvPush
	// EvPop: worker W popped thread A off the top of its own deque B (a
	// local dispatch).
	EvPop
	// EvQueuePush: thread A entered the global queue (ADF/FIFO).
	EvQueuePush
	// EvQueueTake: worker W took thread A from the global queue.
	EvQueueTake
	// EvJobBegin: job A was submitted with root thread B. Recorded on the
	// scheduler lane (W = -1) under the runtime's submission lock, before
	// the root is published, so replay always learns a root tid before its
	// first push. Appears once per Submit.
	EvJobBegin
	// EvJobCancel: job A was canceled (context cancellation, deadline,
	// shutdown abort, or deadlock recovery); its threads die at their next
	// scheduling point. Recorded on the scheduler lane (W = -1).
	EvJobCancel
	// EvJobEnd: job A's last thread completed on worker W; B = 1 if the
	// job finished with an error (panic, violation, or cancellation).
	EvJobEnd
	// EvTouch: thread A touched C bytes of data block B while running on
	// worker W. Emitted by T.Touch only when a probe is installed; feeds
	// the parallel cache-complexity replay (cachecplx.go). Appended after
	// EvJobEnd so older trace files (kinds serialize as plain integers)
	// keep loading unchanged.
	EvTouch
	// EvPromote: thread A was promoted to a goroutine-backed frame on
	// worker W — its first dispatch out of a ready structure (B=0), or its
	// first blocking suspension while executing inline in a parent's frame
	// (B=1). Appended after EvTouch so older trace files keep loading
	// unchanged.
	EvPromote
	// EvJobAnnotate: job A carries the submitter's annotation — B is an
	// opaque tenant tag and C an opaque per-submitter job tag (the serving
	// layer stamps its tenant id and request sequence). Recorded on the
	// scheduler lane (W = -1) immediately after the job's EvJobBegin,
	// under the same submission lock, so replay always learns a job's
	// owner before any of its threads run. The verifier checks only that
	// it rides the scheduler lane; the exporter draws it as a
	// job-annotate instant carrying the tenant and job tags. Appended
	// after EvPromote so older trace files keep loading unchanged.
	EvJobAnnotate

	numKinds
)

// Dispatch sources (EvDispatch payload B).
const (
	_ int64 = iota // reserved: exported traces carry the numbers below
	SrcNext
	SrcTerminate
	SrcAcquire
	// SrcInline: the thread ran inline in its
	// parent's frame after conditionally popping it off the own-deque top
	// at the parent's Join (the work-first fast path — no goroutine, no
	// channel hand-off).
	SrcInline
)

// Block reasons (EvBlock payload B).
const (
	BlockJoin int64 = iota
	BlockLock
	BlockFuture
)

var kindNames = [numKinds]string{
	"fork", "dispatch", "block", "complete", "alloc", "alloc-exempt",
	"free", "quota-exhaust", "dummy", "idle", "steal-attempt", "steal",
	"deque-create", "deque-release", "deque-retire", "push", "pop",
	"queue-push", "queue-take", "job-begin", "job-cancel", "job-end",
	"touch", "promote", "job-annotate",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one fixed-size trace record. Seq is the global total order
// (drawn from one atomic counter, assigned under the mutating lock for
// structural events); TS is nanoseconds since the recorder started —
// exact for boundary kinds, and the worker's last boundary timestamp for
// the chatty interior kinds (see exactTS). Ordering semantics always come
// from Seq, never TS.
type Event struct {
	Seq     uint64
	TS      int64
	A, B, C int64
	Kind    Kind
	W       int32 // recording worker; -1 for scheduler-side (non-worker) events
}

func (e Event) String() string {
	return fmt.Sprintf("#%-6d %9dns w%-2d %-13s a=%d b=%d c=%d",
		e.Seq, e.TS, e.W, e.Kind, e.A, e.B, e.C)
}

// Probe is the hook interface the runtime and the policy layer record
// through. A nil Probe disables recording at every hook site; *Recorder is
// the real implementation. Event must be safe for concurrent use under the
// runtime's discipline: each worker index is used by one goroutine at a
// time, and every w = -1 record (submission, cancellation, and any other
// scheduler-side action) is serialized behind the runtime's submission
// lock.
type Probe interface {
	Event(w int, kind Kind, a, b, c int64)
}

// Meta describes the run a stream was recorded from; the verifier needs it
// to pick the policy model and the quota bound.
type Meta struct {
	Policy  string `json:"policy"`
	Workers int    `json:"workers"`
	K       int64  `json:"k"`
	Seed    int64  `json:"seed"`
	// Engine identifies the execution core the stream was recorded from.
	// The runtime stamps EngineCont; Verify rejects anything else.
	Engine string `json:"engine,omitempty"`
}

// EngineCont is Meta.Engine for the work-first continuation engine.
const EngineCont = "cont"

// exactTS is the set of kinds that read the monotonic clock when
// recorded. Reading the clock costs ~4× the rest of the hot path, so only
// the kinds that *end* an interval pay for it: the events that close an
// execution segment (block, complete, quota-exhaust), the steal that ends
// an idle stretch, and the rare dummy split. Every other kind reuses the
// lane's most recent timestamp — dispatch, which follows the previous
// segment's close or a steal within the same scheduling burst, and idle,
// which follows a segment's close the same way, so an idle stretch still
// runs from a clock read to a clock read. Replay verification orders by
// Seq, never TS.
const exactTS = 1<<EvBlock | 1<<EvComplete |
	1<<EvQuotaExhaust | 1<<EvSteal | 1<<EvAllocExempt |
	1<<EvJobBegin | 1<<EvJobCancel | 1<<EvJobEnd | 1<<EvJobAnnotate

// lane is one worker's private ring buffer. Only that worker writes it;
// the merger reads it after the run (the runtime's WaitGroup provides the
// happens-before edge), so writes need no synchronization. The struct is
// padded to its own cache lines so workers never false-share.
type lane struct {
	buf []Event
	n   uint64 // total events ever written; n > len(buf) means wrapped
	ts  int64  // last exact timestamp, reused by non-exactTS kinds
	_   [88]byte
}

// Recorder collects events into per-worker ring buffers. Create one with
// NewRecorder, hand it to grt.Config.Probe, and read it back with Events
// after the run completes. When a lane overflows, the oldest records are
// overwritten and Dropped reports how many — a stream with drops cannot be
// replay-verified.
type Recorder struct {
	seq   atomic.Uint64
	start time.Time
	lanes []lane // index w+1: lane 0 is the pre-run (-1) lane
	meta  Meta
}

// NewRecorder builds a recorder for p workers with the given per-worker
// ring capacity (rounded up to a power of two; 0 picks a default of 1<<17
// events, ~6 MB per worker).
func NewRecorder(p, perWorker int) *Recorder {
	if p < 1 {
		p = 1
	}
	if perWorker <= 0 {
		perWorker = 1 << 17
	}
	cap := 1
	for cap < perWorker {
		cap <<= 1
	}
	r := &Recorder{start: time.Now(), lanes: make([]lane, p+1)}
	for i := range r.lanes {
		r.lanes[i].buf = make([]Event, cap)
	}
	return r
}

// SetMeta attaches run metadata (exported with the stream, required by the
// verifier). Call before or after the run, not during.
func (r *Recorder) SetMeta(m Meta) { r.meta = m }

// Meta returns the attached run metadata.
func (r *Recorder) Meta() Meta { return r.meta }

// Event implements Probe. It is the hot path: one atomic add, a clock
// read for boundary kinds (see exactTS), one store into the caller's
// private ring.
func (r *Recorder) Event(w int, kind Kind, a, b, c int64) {
	ln := &r.lanes[w+1]
	if exactTS&(1<<kind) != 0 {
		ln.ts = time.Since(r.start).Nanoseconds()
	}
	ln.buf[ln.n&uint64(len(ln.buf)-1)] = Event{
		Seq:  r.seq.Add(1),
		TS:   ln.ts,
		Kind: kind,
		W:    int32(w),
		A:    a, B: b, C: c,
	}
	ln.n++
}

// Dropped reports how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	var d uint64
	for i := range r.lanes {
		ln := &r.lanes[i]
		if ln.n > uint64(len(ln.buf)) {
			d += ln.n - uint64(len(ln.buf))
		}
	}
	return d
}

// Len reports the total number of retained events.
func (r *Recorder) Len() int {
	var n int
	for i := range r.lanes {
		ln := &r.lanes[i]
		if ln.n > uint64(len(ln.buf)) {
			n += len(ln.buf)
		} else {
			n += int(ln.n)
		}
	}
	return n
}

// Events merges every lane into one stream sorted by Seq. Call only after
// the run has completed (all workers joined).
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.Len())
	for i := range r.lanes {
		ln := &r.lanes[i]
		kept := ln.n
		if kept > uint64(len(ln.buf)) {
			kept = uint64(len(ln.buf))
		}
		for j := uint64(0); j < kept; j++ {
			out = append(out, ln.buf[(ln.n-kept+j)&uint64(len(ln.buf)-1)])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
