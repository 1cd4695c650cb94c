package policy

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"dfdeques/internal/core"
	"dfdeques/internal/deque"
	"dfdeques/internal/rtrace"
)

// WSPool is the ready pool of the Blumofe & Leiserson work stealer: one
// deque per worker, fixed for the whole run, plus one shared "inbox"
// deque for threads that arrive from outside any worker (the pre-run seed
// and mid-run Inject). Unlike core.SharedPool there is no global order
// and no membership change; with the lock-free deque protocol every
// owner push/pop and every steal is nonblocking, so the pool's only
// mutex is the tiny injectMu serializing concurrent injectors — workers
// never touch it.
//
// The inbox exists because the lock-free deque admits exactly one
// owner-side writer: a foreign PushTop into a worker's deque would race
// the owner's. Injectors instead play the owner role of the inbox
// (serialized by injectMu), and every worker drains it thief-side
// (PopBottom — FIFO, so injection order is preserved) in Acquire before
// trying a random steal.
//
// All methods are safe for concurrent use; methods taking an owner index
// must only be called by that owner. The simulator drives the same
// structure single-threaded, through WS.
type WSPool[T comparable] struct {
	dq    []*deque.Deque[T]
	inbox *deque.Deque[T]

	// injectMu serializes injectors (the inbox's collective owner role).
	// It is never taken by a worker on any path.
	injectMu sync.Mutex

	// Tracing (nil probe: disabled). Deque i's trace id is i and the
	// inbox's is len(dq) — the structure is fixed, so ids need no
	// allocation protocol. stealMu[id] is taken by thieves only while a
	// probe is attached: it makes a steal's claim and its record one
	// critical section per victim, so two thieves on one deque are
	// recorded in the order they claimed. Untraced steals never touch it.
	probe   rtrace.Probe
	tidOf   func(T) int64
	stealMu []sync.Mutex

	ready   atomic.Int64 // total queued threads: lock-free has-work checks
	steals  atomic.Int64
	failed  atomic.Int64
	local   atomic.Int64
	lockOps atomic.Int64 // injectMu acquisitions (the pool's only lock when untraced)
}

// NewWSPool builds a pool of p per-worker deques plus the shared inbox.
func NewWSPool[T comparable](p int) *WSPool[T] {
	if p < 1 {
		panic("policy: WSPool needs at least one worker")
	}
	pl := &WSPool[T]{dq: make([]*deque.Deque[T], p)}
	for i := range pl.dq {
		pl.dq[i] = deque.NewDeque[T]()
		pl.dq[i].Owner = i
		pl.dq[i].ID = int64(i)
	}
	pl.inbox = deque.NewDeque[T]()
	pl.inbox.ID = int64(p)
	return pl
}

// Instrument attaches a trace probe (see internal/rtrace). Call before
// the pool is shared.
func (pl *WSPool[T]) Instrument(p rtrace.Probe, tid func(T) int64) {
	pl.probe = p
	pl.tidOf = tid
	pl.stealMu = make([]sync.Mutex, len(pl.dq)+1)
}

// stealBottom claims the bottom of d for thief w and records the steal.
func (pl *WSPool[T]) stealBottom(w int, d *deque.Deque[T]) (T, bool) {
	if pl.tidOf == nil {
		return d.PopBottom()
	}
	mu := &pl.stealMu[d.ID]
	mu.Lock()
	defer mu.Unlock()
	x, ok := d.PopBottom()
	if ok {
		pl.trace(w, rtrace.EvSteal, pl.tidOf(x), d.ID, -1)
	}
	return x, ok
}

// trace records one event when a probe is attached. Pushes are recorded
// before the item is published and pops/steals after the claim succeeds,
// so the global sequence linearizes each deque's history without any
// lock (a thief can only claim x after the publish, which is after the
// push's record).
func (pl *WSPool[T]) trace(w int, k rtrace.Kind, a, b, c int64) {
	if pl.probe != nil {
		pl.probe.Event(w, k, a, b, c)
	}
}

// Workers returns the number of per-worker deques (= workers).
func (pl *WSPool[T]) Workers() int { return len(pl.dq) }

// Push pushes x onto the top of w's own deque — the owner's fork path.
// Nonblocking in every state: one owner-side PushTop, no mutex.
func (pl *WSPool[T]) Push(w int, x T) {
	d := pl.dq[w]
	if pl.tidOf != nil {
		pl.trace(w, rtrace.EvPush, pl.tidOf(x), d.ID, 0)
	}
	d.PushTop(x)
	pl.ready.Add(1)
}

// inject places x on the shared inbox on behalf of a goroutine that is
// not a worker (recorder identifies it in the trace: -1 for the pre-run
// seed and mid-run injection). Injectors collectively own the inbox, so
// their pushes are serialized by injectMu; the trace is recorded inside
// the critical section, before the publish.
func (pl *WSPool[T]) inject(recorder int, x T) {
	pl.injectMu.Lock()
	pl.lockOps.Add(1)
	if pl.tidOf != nil {
		pl.trace(recorder, rtrace.EvPush, pl.tidOf(x), pl.inbox.ID, 0)
	}
	pl.inbox.PushTop(x)
	pl.injectMu.Unlock()
	pl.ready.Add(1)
}

// popInbox lets worker w claim the oldest injected thread, thief-side
// (PopBottom — many workers race here and the CAS arbitrates). Recorded
// as a steal from the inbox deque.
func (pl *WSPool[T]) popInbox(w int) (T, bool) {
	var zero T
	if pl.inbox.Len() == 0 {
		return zero, false
	}
	x, ok := pl.stealBottom(w, pl.inbox)
	if !ok {
		return zero, false
	}
	pl.ready.Add(-1)
	pl.steals.Add(1)
	return x, true
}

// Pop pops the top of w's own deque — nonblocking (a single CAS only
// when racing a thief for the last item).
func (pl *WSPool[T]) Pop(w int) (T, bool) {
	d := pl.dq[w]
	x, ok := d.PopTop()
	if ok {
		if pl.tidOf != nil {
			pl.trace(w, rtrace.EvPop, pl.tidOf(x), d.ID, 0)
		}
		pl.ready.Add(-1)
		pl.local.Add(1)
	}
	return x, ok
}

// PopIf pops the top of w's own deque only if it is exactly want,
// reporting whether it did — the continuation engine's inline-join claim
// (see core.SharedPool.PopOwnIf). The contested last-item case delegates
// to the deque's conflict CAS, so a racing bottom-steal of a single-item
// deque cannot double-claim the thread.
func (pl *WSPool[T]) PopIf(w int, want T) bool {
	d := pl.dq[w]
	ok := d.PopTopIf(want)
	if ok {
		if pl.tidOf != nil {
			pl.trace(w, rtrace.EvPop, pl.tidOf(want), d.ID, 0)
		}
		pl.ready.Add(-1)
		pl.local.Add(1)
	}
	return ok
}

// StealFrom pops the bottom of victim v's deque on behalf of thief w. An
// empty victim is screened out by Len before anything else, and the
// steal itself is the lock-free bottom-word CAS: the victim's owner is
// never blocked, and a CAS lost to the owner or another thief is just a
// failed attempt.
func (pl *WSPool[T]) StealFrom(w, v int) (T, bool) {
	d := pl.dq[v]
	var zero T
	if d.Len() == 0 {
		pl.trace(w, rtrace.EvStealAttempt, d.ID, 0, 0)
		pl.failed.Add(1)
		return zero, false
	}
	pl.trace(w, rtrace.EvStealAttempt, d.ID, 0, 0)
	x, ok := pl.stealBottom(w, d)
	if ok {
		pl.ready.Add(-1)
		pl.steals.Add(1)
	} else {
		pl.failed.Add(1)
	}
	return x, ok
}

// NoteFailed counts worker w's steal attempt abandoned before touching a
// deque (e.g. the thief drew itself as victim).
func (pl *WSPool[T]) NoteFailed(w int) {
	pl.failed.Add(1)
	pl.trace(w, rtrace.EvStealAttempt, -1, 0, 0)
}

// HasWork reports whether any deque holds a thread — one atomic load.
func (pl *WSPool[T]) HasWork() bool { return pl.ready.Load() > 0 }

// Stats returns (steals, failed attempts, local dispatches, and injectMu
// acquisitions — the pool's only lock outside tracing, taken exclusively
// by injectors; the untraced worker hot paths are mutex-free).
func (pl *WSPool[T]) Stats() (steals, failed, local, lockOps int64) {
	return pl.steals.Load(), pl.failed.Load(), pl.local.Load(), pl.lockOps.Load()
}

// WS is the space-efficient work stealer of Blumofe & Leiserson as a
// runtime policy — the paper's "Cilk" reference point, and the
// DFDeques(∞) specialization of §3.3: with K = ∞ the quota never
// preempts, a worker only leaves its deque when the deque is empty, and
// the deque count never needs to exceed p — so the ordered list R
// degenerates to one fixed deque per worker and the leftmost-p window to
// a uniformly random victim. That is why WS has no quota path at all:
// Threshold is 0 (no dummy-thread transformation), Charge never vetoes,
// and Acquire never refills anything.
type WS[T comparable] struct {
	pool *WSPool[T]
	rngs []*rand.Rand // rngs[w] used only by worker w, seeded on first use
	seed int64
}

// NewWS builds a WS policy for p workers; seed derives each worker's
// private victim-selection stream (core.WorkerSeed), so victim choices
// are deterministic per (seed, worker) and the steal path never
// serializes on a shared generator. Each stream is seeded lazily at the
// worker's first steal attempt — math/rand seeding is expensive, and
// eager per-worker seeding would dominate short runs' construction.
func NewWS[T comparable](p int, seed int64) *WS[T] {
	return &WS[T]{pool: NewWSPool[T](p), rngs: make([]*rand.Rand, p), seed: seed}
}

// rng returns worker w's victim-selection stream; only worker w may call.
func (s *WS[T]) rng(w int) *rand.Rand {
	r := s.rngs[w]
	if r == nil {
		r = rand.New(rand.NewSource(core.WorkerSeed(s.seed, w)))
		s.rngs[w] = r
	}
	return r
}

// Instrument attaches a trace probe to the pool (see internal/rtrace).
// Call before the policy is shared.
func (s *WS[T]) Instrument(p rtrace.Probe, tid func(T) int64) {
	s.pool.Instrument(p, tid)
}

// Name implements Policy.
func (s *WS[T]) Name() string { return "WS" }

// Threshold implements Policy: no quota, no dummy transformation.
func (s *WS[T]) Threshold() int64 { return 0 }

// Seed implements Policy: the root starts in the shared inbox (recorded
// as a pre-run push: no worker is running yet) and is claimed by the
// first worker to drain it.
func (s *WS[T]) Seed(t T) { s.pool.inject(-1, t) }

// Inject implements Policy: WS has no global priority order, so injected
// threads queue FIFO in the shared inbox; idle workers drain it in
// Acquire and thieves spread the resulting work.
func (s *WS[T]) Inject(t T) { s.pool.inject(-1, t) }

// ForkCont implements Policy: the parent keeps running and the child is
// pushed on top of w's deque; steals take the oldest, coarsest thread
// from the other end.
func (s *WS[T]) ForkCont(w int, parent, child T) { s.pool.Push(w, child) }

// JoinPop implements Policy: claim child for an inline join iff it is
// still the top of w's own deque. The conditional pop is required — Wake
// can stack woken threads above the forked child, and a thief may have
// taken it from the bottom of a single-item deque.
func (s *WS[T]) JoinPop(w int, child T) bool { return s.pool.PopIf(w, child) }

// Charge implements Policy: never vetoes (K = ∞).
func (s *WS[T]) Charge(w int, n int64) bool { return true }

// Credit implements Policy.
func (s *WS[T]) Credit(w int, n int64) {}

// Preempt implements Policy (unreachable: Charge never vetoes).
func (s *WS[T]) Preempt(w int, t T) {
	panic("policy: WS cannot preempt")
}

// Wake implements Policy: the woken thread is pushed on the waking
// worker's own deque (it is the most recently suspended work the worker
// knows about).
func (s *WS[T]) Wake(w int, t T) { s.pool.Push(w, t) }

// Next implements Policy.
func (s *WS[T]) Next(w int) (T, bool) { return s.pool.Pop(w) }

// Terminate implements Policy: a woken parent is executed immediately
// (the deque is empty at this point for nested-parallel programs).
func (s *WS[T]) Terminate(w int, woke T, hasWoke bool) (T, bool) {
	if hasWoke {
		return woke, true
	}
	return s.pool.Pop(w)
}

// Dummy implements Policy (unreachable: Threshold is 0).
func (s *WS[T]) Dummy(w int) {}

// Acquire implements Policy: drain the own deque first (lock wake-ups
// land there), then the shared inbox (the root seed and injected
// threads, oldest first), then steal the bottom of a uniformly random
// victim. Drawing yourself is a failed attempt, as in the simulator.
func (s *WS[T]) Acquire(w int) (T, bool) {
	if x, ok := s.pool.Pop(w); ok {
		return x, true
	}
	if x, ok := s.pool.popInbox(w); ok {
		return x, true
	}
	v := s.rng(w).Intn(s.pool.Workers())
	if v == w {
		s.pool.NoteFailed(w)
		var zero T
		return zero, false
	}
	return s.pool.StealFrom(w, v)
}

// StealFrom is the simulator's steal, a serial-engine entry: w takes the
// bottom of victim v's deque, v drawn by the caller, whose §4.1 cost model
// also allows one successful steal per victim per round.
func (s *WS[T]) StealFrom(w, v int) (T, bool) { return s.pool.StealFrom(w, v) }

// CheckInvariants verifies that every worker's deque is sorted top to
// bottom by less, the priority order (the WS analogue of Lemma 3.1(1–2));
// serial engines and tests only.
func (s *WS[T]) CheckInvariants(less func(a, b T) bool) error {
	for w, d := range s.pool.dq {
		items := d.Items()
		for j := 1; j < len(items); j++ {
			if !less(items[j], items[j-1]) {
				return fmt.Errorf("policy: WS deque %d not priority-sorted at %d", w, j)
			}
		}
	}
	return nil
}

// HasWork implements Policy.
func (s *WS[T]) HasWork() bool { return s.pool.HasWork() }

// Stats implements Policy. MaxDeques is structurally the worker count:
// the sense in which DFDeques(∞)'s deque list never outgrows p (§3.3).
func (s *WS[T]) Stats() Stats {
	st, f, l, ops := s.pool.Stats()
	return Stats{
		Steals:          st,
		FailedSteals:    f,
		LocalDispatches: l,
		LockOps:         ops,
		MaxDeques:       s.pool.Workers(),
	}
}
