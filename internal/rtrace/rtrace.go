// Package rtrace is the concurrent runtime's observability subsystem: a
// low-overhead event recorder for real executions (internal/grt), the
// concurrent analogue of the simulator's per-event trace (cmd/dfdtrace).
//
// Each worker writes fixed-size binary records — dispatches, steal
// attempts and successes, quota exhaustions, deque creation/retirement,
// dummy splits, thread completions — into a private ring buffer: the hot
// path takes no locks and touches no shared memory except one atomic
// sequence counter, which is what makes the merged stream totally ordered.
// A scheduling decision that is a run of records no other worker can
// observe in between — a fork and its push, an inline join's claim, a
// give-up's republish and release, a steal and its dispatch — is written
// as one burst (the Burst* kinds): one ring slot, and one add on the
// counter that reserves the sequence numbers of all its records. Events expands every burst back
// into its records (Expand), so no consumer sees a burst.
// Structural events (anything that mutates the deque list R or a ready
// queue) are recorded while the mutating lock is held, so the sequence
// order is a true linearization of the structure's history; that is what
// lets the post-hoc verifier (verify.go) replay R and check the paper's
// Lemma 3.1 ordering, dispatch conservation, and quota accounting on real
// runs. The exporter (export.go) turns the same stream into Chrome
// trace_event JSON (chrome://tracing, Perfetto) plus a metrics summary.
//
// Recording is gated by a nil Probe: one predictable branch per
// scheduling decision.
package rtrace

import (
	"fmt"
	"math"
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
	// (join-woken parent handed off), SrcAcquire (taken by a steal or a
	// queue take; DFDeques writes it as the last record of the steal's
	// burst), SrcInline (claimed at its parent's Join).
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
	// at the head of the worker's acquire loop, and in a give-up's lead
	// burst (quota exhaustion, a dummy's end), ahead of the republish and
	// the release, so it precedes the steal's records there. It reads no
	// clock (see exactTS).
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

// Burst kinds. A burst is one Probe call, and one ring slot, for a run of
// records on one lane that no other worker can observe anything between:
// before a push publishes, after an inline claim, or inside one exclusive
// spine section. The payload carries what its records need, and Expand
// lays them out. Bursts exist only between a recorder and Expand — a
// stream (Recorder.Events, a trace file) holds their records, never a
// burst — so their numbers are free to move.
//
// A give-up (§3.3: the quota ran out, or a dummy ended) is at most two
// bursts, written at the end of the one spine section that republishes
// the thread, releases the deque and makes the steal attempt: a lead
// burst, whose tail is the section's k failed redraws, then the steal's
// burst (BurstGiveUpSteal, BurstGiveUpTakeover) or the failed attempt's
// record. A lead burst's C is the released deque's id above k: id<<3 | k.
// Each steal kind is followed by its takeover kind.
const (
	// BurstForkPush: EvFork{A, B, C&1}, then EvPush{B, C>>1}: thread A
	// forked B (a dummy leaf if C&1 = 1) and pushed it on deque C>>1.
	BurstForkPush Kind = numKinds + iota
	// BurstJoinInline: EvPop{A, C}, EvBlock{B, BlockJoin, A},
	// EvDispatch{A, SrcInline}: parent B claimed its child A off the top
	// of deque C at its Join and runs it inline.
	BurstJoinInline
	// BurstReturnInline: EvComplete{A}, EvDispatch{B, SrcTerminate}: the
	// inline child A completed and its parent B resumes.
	BurstReturnInline
	// BurstGiveUp: EvQuotaExhaust{A, B}, EvIdle, EvPush{A, d},
	// EvDequeRelease{d}, then C&7 EvStealAttempt{-1}, d = C>>3: the quota
	// vetoed thread A's allocation of B bytes, the worker turned to
	// stealing, put A back on top of its deque d, gave d up and missed
	// C&7 draws.
	BurstGiveUp
	// BurstPromoteGiveUp: EvPromote{A, 1}, then BurstGiveUp's records: A,
	// running inline, was promoted to stop.
	BurstPromoteGiveUp
	// BurstDummyGiveUp: EvIdle, EvPush{A, d}, EvDequeRelease{d}, then C&7
	// EvStealAttempt{-1}, d = C>>3: a dummy ended and its joiner A went
	// back on top of deque d, which the worker gave up.
	BurstDummyGiveUp
	// BurstDummyRelease: EvIdle, EvDequeRelease{d}, then C&7
	// EvStealAttempt{-1}, d = C>>3: a dummy ended with no joiner to
	// republish, and the worker gave up deque d, which keeps threads.
	BurstDummyRelease
	// BurstDummyRetire: BurstDummyRelease with EvDequeRetire{d}: the
	// given-up deque d was empty and left R.
	BurstDummyRetire
	// BurstMisses: C&255 + 1 EvStealAttempt{-1}: a hunt's failed screens
	// (draws that named no deque or an empty one), counted by the worker
	// and written at once ahead of its steal or before it parks.
	BurstMisses
	// BurstSteal: EvStealAttempt{B}, EvSteal{A, B, C}, EvDispatch{A,
	// SrcAcquire}: an attempt on deque B that stole thread A into deque C,
	// and A's dispatch.
	BurstSteal
	// BurstTakeover: EvStealAttempt{B}, EvSteal{A, B, C},
	// EvDequeRetire{B}, EvDispatch{A, SrcAcquire}: the steal drained the
	// unowned victim B and took it over as C.
	BurstTakeover
	// BurstGiveUpSteal and BurstGiveUpTakeover: BurstSteal's and
	// BurstTakeover's records, made in a give-up's section after its lead
	// burst. They take the lead's timestamp instead of reading the clock.
	BurstGiveUpSteal
	BurstGiveUpTakeover

	numBursts = BurstGiveUpTakeover - numKinds + 1
)

// maxBurst is the longest burst's record count without its tail of
// attempts: a buffer of this many Events holds any burst's expansion
// with its tail left off.
const maxBurst = 5

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

var kindNames = [numKinds + numBursts]string{
	"fork", "dispatch", "block", "complete", "alloc", "alloc-exempt",
	"free", "quota-exhaust", "dummy", "idle", "steal-attempt", "steal",
	"deque-create", "deque-release", "deque-retire", "push", "pop",
	"queue-push", "queue-take", "job-begin", "job-cancel", "job-end",
	"touch", "promote", "job-annotate",
	"fork+push", "pop+block+dispatch", "complete+dispatch",
	"quota-exhaust+idle+push+deque-release+steal-attempts",
	"promote+quota-exhaust+idle+push+deque-release+steal-attempts",
	"idle+push+deque-release+steal-attempts",
	"idle+deque-release+steal-attempts", "idle+deque-retire+steal-attempts",
	"steal-attempts",
	"steal-attempt+steal+dispatch", "steal-attempt+steal+deque-retire+dispatch",
	"give-up:steal-attempt+steal+dispatch", "give-up:steal-attempt+steal+deque-retire+dispatch",
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
// the real implementation. Each call is one record or one burst (the
// Burst* kinds); a probe that reads records rather than storing calls
// passes a burst through Expand. Event must be safe for concurrent use
// under the runtime's discipline: each worker index is used by one
// goroutine at a time, and every w = -1 record (submission, cancellation,
// and any other scheduler-side action) is serialized behind the runtime's
// submission lock.
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
// an idle hunt, and the rare dummy split. Every other kind reuses the
// lane's most recent timestamp — dispatch, which follows the previous
// segment's close or a steal within the same scheduling burst, and idle,
// which follows a segment's close the same way, so an idle stretch still
// runs from a clock read to a clock read. A burst reads the clock once if
// any of its records would, and all its records carry that timestamp.
//
// A give-up reads the clock once. Its lead burst, written at the end of
// the spine section with everything the section did, reads it if it
// holds the quota-exhaust (BurstGiveUp); a dummy's give-up follows the
// dummy's complete, which read it, so its lead does not. The steal the
// section made (BurstGiveUpSteal, BurstGiveUpTakeover) takes the lead's
// stamp: the veto and the steal share one timestamp, and the give-up's
// idle stretch, from its idle record to the dispatch that ends the steal
// burst, is zero-length. A hunt's steal (BurstSteal, BurstTakeover)
// still reads the clock: it ends a real idle stretch.
// Replay verification orders by Seq, never TS.
const exactTS = 1<<EvBlock | 1<<EvComplete |
	1<<EvQuotaExhaust | 1<<EvSteal | 1<<EvAllocExempt |
	1<<EvJobBegin | 1<<EvJobCancel | 1<<EvJobEnd | 1<<EvJobAnnotate |
	1<<BurstJoinInline | 1<<BurstReturnInline | 1<<BurstGiveUp |
	1<<BurstPromoteGiveUp | 1<<BurstSteal | 1<<BurstTakeover

// ReadsClock reports whether recording a record or burst of kind k reads
// the monotonic clock (see exactTS).
func (k Kind) ReadsClock() bool { return exactTS&(1<<k) != 0 }

// Expand appends the records e stands for to dst: e itself for a stream
// kind; for a burst, its records in order, on e's lane, with e's
// timestamp and Seqs counting up from e.Seq. It is the one place a
// burst's layout is read: Recorder.Events, Counters.Event and any other
// probe that reads records go through it, and the recorder's widths are
// read off it.
func Expand(dst []Event, e Event) []Event {
	switch e.Kind {
	case BurstForkPush:
		return append(dst, e.at(0, EvFork, e.A, e.B, e.C&1), e.at(1, EvPush, e.B, e.C>>1, 0))
	case BurstJoinInline:
		return append(dst, e.at(0, EvPop, e.A, e.C, 0),
			e.at(1, EvBlock, e.B, BlockJoin, e.A), e.at(2, EvDispatch, e.A, SrcInline, 0))
	case BurstReturnInline:
		return append(dst, e.at(0, EvComplete, e.A, 0, 0), e.at(1, EvDispatch, e.B, SrcTerminate, 0))
	case BurstGiveUp, BurstPromoteGiveUp:
		i, d := uint64(0), e.C>>3
		if e.Kind == BurstPromoteGiveUp {
			dst = append(dst, e.at(0, EvPromote, e.A, 1, 0))
			i = 1
		}
		dst = append(dst, e.at(i, EvQuotaExhaust, e.A, e.B, 0), e.at(i+1, EvIdle, 0, 0, 0),
			e.at(i+2, EvPush, e.A, d, 0), e.at(i+3, EvDequeRelease, d, 0, 0))
		return e.misses(dst, i+4, e.C&7)
	case BurstDummyGiveUp:
		d := e.C >> 3
		dst = append(dst, e.at(0, EvIdle, 0, 0, 0), e.at(1, EvPush, e.A, d, 0), e.at(2, EvDequeRelease, d, 0, 0))
		return e.misses(dst, 3, e.C&7)
	case BurstDummyRelease, BurstDummyRetire:
		k := EvDequeRelease
		if e.Kind == BurstDummyRetire {
			k = EvDequeRetire
		}
		dst = append(dst, e.at(0, EvIdle, 0, 0, 0), e.at(1, k, e.C>>3, 0, 0))
		return e.misses(dst, 2, e.C&7)
	case BurstMisses:
		return e.misses(dst, 0, e.C&255+1)
	case BurstSteal, BurstGiveUpSteal:
		return append(dst, e.at(0, EvStealAttempt, e.B, 0, 0), e.at(1, EvSteal, e.A, e.B, e.C),
			e.at(2, EvDispatch, e.A, SrcAcquire, 0))
	case BurstTakeover, BurstGiveUpTakeover:
		return append(dst, e.at(0, EvStealAttempt, e.B, 0, 0), e.at(1, EvSteal, e.A, e.B, e.C),
			e.at(2, EvDequeRetire, e.B, 0, 0), e.at(3, EvDispatch, e.A, SrcAcquire, 0))
	}
	return append(dst, e)
}

// at is record i of burst e: kind k with payload a, b, c.
func (e *Event) at(i uint64, k Kind, a, b, c int64) Event {
	return Event{Seq: e.Seq + i, TS: e.TS, Kind: k, W: e.W, A: a, B: b, C: c}
}

// misses appends records i to i+n-1 of burst e: n failed steal attempts
// that named no deque, or an empty one.
func (e *Event) misses(dst []Event, i uint64, n int64) []Event {
	for j := uint64(0); j < uint64(n); j++ {
		dst = append(dst, e.at(i+j, EvStealAttempt, -1, 0, 0))
	}
	return dst
}

// width and tail give how many records each kind stands for: width[k] +
// C&tail[k] for a record of kind k with payload C — 1 and 0 for a stream
// kind (and for any number that is no kind), a burst's fixed records and
// the mask of its tail of failed attempts for a burst. Read off Expand,
// so the two cannot disagree; indexed by any uint8, so the hot path has
// no bounds check.
var width, tail = func() (n, t [256]uint8) {
	for k := range n {
		n[k] = uint8(len(Expand(nil, Event{Kind: Kind(k)})))
		t[k] = uint8(len(Expand(nil, Event{Kind: Kind(k), C: -1})) - int(n[k]))
	}
	return n, t
}()

// records is how many records a slot of kind k with payload c stands for.
func records(k Kind, c int64) uint64 {
	return uint64(width[k]) + uint64(c)&uint64(tail[k])
}

// lane is one worker's private ring buffer. Only that worker writes it;
// the merger reads it after the run (the runtime's WaitGroup provides the
// happens-before edge), so writes need no synchronization. The struct is
// padded to its own cache lines so workers never false-share.
type lane struct {
	buf []Event
	n   uint64 // total slots ever written; n > len(buf) means wrapped
	ts  int64  // last exact timestamp, reused by non-exactTS kinds
	_   [88]byte
}

// retained returns the lane's slots still in the ring, oldest first:
// buf[i&mask] for i in [from, n).
func (ln *lane) retained() (from, n uint64) {
	if ln.n > uint64(len(ln.buf)) {
		return ln.n - uint64(len(ln.buf)), ln.n
	}
	return 0, ln.n
}

// Recorder collects events into per-worker ring buffers. Create one with
// NewRecorder, hand it to grt.Config.Probe, and read it back with Events
// after the run completes. A ring slot holds one record or one burst.
// When a lane overflows, the oldest slots are overwritten and Dropped
// reports how many — a stream with drops cannot be replay-verified.
type Recorder struct {
	seq   atomic.Uint64
	start time.Time
	lanes []lane // index w+1: lane 0 is the pre-run (-1) lane
	meta  Meta
}

// NewRecorder builds a recorder for p workers with the given per-worker
// ring capacity in slots (rounded up to a power of two; 0 picks a default
// of 1<<17 slots, ~6 MB per worker).
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

// Event implements Probe. It is the hot path: one atomic add, which
// reserves the Seqs of all of a burst's records at once, a clock read for
// boundary kinds (see exactTS), one store into the caller's private ring.
func (r *Recorder) Event(w int, kind Kind, a, b, c int64) {
	ln := &r.lanes[w+1]
	if kind.ReadsClock() {
		ln.ts = time.Since(r.start).Nanoseconds()
	}
	n := records(kind, c)
	ln.buf[ln.n&uint64(len(ln.buf)-1)] = Event{
		Seq:  r.seq.Add(n) - n + 1,
		TS:   ln.ts,
		Kind: kind,
		W:    int32(w),
		A:    a, B: b, C: c,
	}
	ln.n++
}

// Dropped reports how many ring slots were overwritten by wrap-around.
// A slot holds one record or a burst of several, so it counts slots, not
// records: at most as many as were lost, and non-zero exactly when
// something was.
func (r *Recorder) Dropped() uint64 {
	var d uint64
	for i := range r.lanes {
		from, _ := r.lanes[i].retained()
		d += from
	}
	return d
}

// Len reports how many records the retained slots hold, bursts expanded:
// len(Events()).
func (r *Recorder) Len() int {
	var n int
	for i := range r.lanes {
		ln := &r.lanes[i]
		from, to := ln.retained()
		for j := from; j < to; j++ {
			e := &ln.buf[j&uint64(len(ln.buf)-1)]
			n += int(records(e.Kind, e.C))
		}
	}
	return n
}

// Events merges every lane into one stream in Seq order, every burst
// expanded into its records. A lane is written in Seq order already, and
// a burst's Seqs are reserved at once, so this is a merge of the lanes'
// runs, not a sort. Call only after the run has completed (all workers
// joined).
func (r *Recorder) Events() []Event {
	type run struct {
		ln       *lane
		from, to uint64
	}
	head := func(x *run) *Event { return &x.ln.buf[x.from&uint64(len(x.ln.buf)-1)] }
	runs := make([]run, 0, len(r.lanes))
	for i := range r.lanes {
		if from, to := r.lanes[i].retained(); from < to {
			runs = append(runs, run{&r.lanes[i], from, to})
		}
	}
	out := make([]Event, 0, r.Len())
	for len(runs) > 0 {
		// The run with the lowest head goes until it passes the next
		// lowest.
		m, next := 0, uint64(math.MaxUint64)
		for i := 1; i < len(runs); i++ {
			if s := head(&runs[i]).Seq; s < head(&runs[m]).Seq {
				m, next = i, head(&runs[m]).Seq
			} else if s < next {
				next = s
			}
		}
		x := &runs[m]
		for x.from < x.to && head(x).Seq < next {
			out = Expand(out, *head(x))
			x.from++
		}
		if x.from == x.to {
			runs[m] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
	}
	return out
}
