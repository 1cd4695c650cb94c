package rtrace

import (
	"sync"
	"sync/atomic"
)

// Counters is a Probe that maintains live aggregate counters instead of a
// replayable stream: the always-on metrics half of the observability
// subsystem. Where Recorder captures every event for export and replay
// verification (and drops the oldest on ring wrap), Counters folds each
// event into a fixed set of atomics on arrival — O(numKinds) memory per
// lane, no drops, readable at any instant while the run is still going. It
// exists for long-lived serving processes (cmd/dfdserve's /metrics
// endpoint) where a run never "completes" and a scrape must not stop the
// world.
//
// The counts are kept per recording worker, like the Recorder's rings:
// worker w adds into lane w+1 (lane 0 is the scheduler side, w = -1), each
// lane on cache lines of its own, and a read sums the lanes — one shared
// array made every event of every worker an atomic add on the same few
// lines. Workers past the last lane wrap around and share one; the adds
// are atomic, so the sums stay exact.
//
// LiveSummary projects the counters onto the Summary schema, and
// Summarize is the same fold driven by a recorded stream (it feeds the
// stream through a Counters), so downstream consumers (metric exporters,
// dashboards) read one shape regardless of source; the stream-only fields
// (WallNs, PerWorker, Cache) stay zero here. Use Tee to feed one runtime's
// events to both a Counters and a Recorder.
type Counters struct {
	lanes [counterLanes]counterLane
	// deques replays the deque population. Shared, not per lane: a gauge
	// has no per-lane meaning, and its records are made under the R spine,
	// which serializes them already — the lock is never contended.
	dequesMu sync.Mutex
	deques   dequeGauge
}

// dequeGauge replays the deque population, len(R), and its high-water
// from a DFDeques stream's membership records: EvDequeCreate and EvSteal
// (its new deque) add one, EvDequeRetire takes one away. A
// steal that drains an unowned victim records its new deque before the
// victim's retirement, but R never holds both — the pool makes the two
// changes in one spine section and samples its high-water after it — so
// a steal's new deque is held until the next membership record: if that
// is the same worker retiring the steal's victim, the two cancel, and the
// population never moved. Any other record settles the held deque first.
// The pool emits membership records under its spine, so they arrive in
// R's order.
type dequeGauge struct {
	live, max int64
	held      bool  // a steal's new deque is not counted yet
	heldW     int32 // that steal's worker
	heldB     int64 // and its victim
}

// fold applies one record. It returns the population after each change
// R went through: settled when a held steal's deque was counted (-1 if
// not), now after the record's own change (-1 if the record made none,
// or is held). Records other than membership ones are ignored.
func (g *dequeGauge) fold(w int32, kind Kind, a, b int64) (settled, now int64) {
	settled, now = -1, -1
	switch {
	case kind == EvDequeRetire && g.held && g.heldW == w && g.heldB == a:
		g.held = false // the victim made way for the thief's deque
		return
	case kind == EvDequeCreate, kind == EvDequeRetire, kind == EvDequeRelease, kind == EvSteal:
		settled = g.settle()
	default:
		return
	}
	switch kind {
	case EvDequeCreate:
		g.live++
		now = g.live
	case EvDequeRetire:
		g.live--
		now = g.live
	case EvSteal:
		g.held, g.heldW, g.heldB = true, w, b
	}
	g.max = max(g.max, now)
	return
}

// settle counts a held steal's deque and returns the population it
// brought, or -1 if no steal was held.
func (g *dequeGauge) settle() int64 {
	if !g.held {
		return -1
	}
	g.held = false
	g.live++
	g.max = max(g.max, g.live)
	return g.live
}

// counterLanes is a power of two: lane (w+1) mod counterLanes.
const counterLanes = 32

// counterLane is one recording worker's counts, padded to whole cache
// lines: one count per kind, bursts included. A burst is counted once,
// as itself, and its records are credited when the counts are read
// (records); the failed attempts of a burst's tail, whose number is in
// its payload, are added up as they arrive.
type counterLane struct {
	counts  [numKinds + numBursts]atomic.Int64
	dummies atomic.Int64 // EvFork or BurstForkPush with C&1 = 1: dummy leaves
	tails   atomic.Int64 // EvStealAttempt records in bursts' tails
	_       [(64 - (int(numKinds+numBursts)+2)*8%64) % 64]byte
}

// burstRecords[b][k] is how many records of kind k the burst numKinds+b
// stands for without its tail, read off Expand; changesR[b] is whether
// one of them changes R (the deque gauge's records).
var burstRecords, changesR = func() (n [numBursts][numKinds]int64, r [numBursts]bool) {
	for b := range n {
		for _, e := range Expand(nil, Event{Kind: numKinds + Kind(b)}) {
			n[b][e.Kind]++
			switch e.Kind {
			case EvSteal, EvDequeCreate, EvDequeRelease, EvDequeRetire:
				r[b] = true
			}
		}
	}
	return n, r
}()

// NewCounters returns a zeroed counter set.
func NewCounters() *Counters { return &Counters{} }

// Event implements Probe. Safe for concurrent use from any number of
// workers: every count is an atomic add, and the deque gauge takes its
// own lock (the records of a burst that changes R are folded into it one
// by one, through Expand, without its tail of attempts). Numbers that
// are no kind are ignored.
func (c *Counters) Event(w int, kind Kind, a, b, cc int64) {
	if kind >= numKinds+numBursts {
		return
	}
	ln := &c.lanes[(w+1)&(counterLanes-1)]
	ln.counts[kind].Add(1)
	if t := cc & int64(tail[kind]); t != 0 {
		ln.tails.Add(t)
	}
	switch kind {
	case EvFork, BurstForkPush:
		if cc&1 == 1 {
			ln.dummies.Add(1)
		}
	case EvSteal, EvDequeCreate, EvDequeRelease, EvDequeRetire:
		c.dequesMu.Lock()
		c.deques.fold(int32(w), kind, a, b)
		c.dequesMu.Unlock()
	}
	if kind >= numKinds && changesR[kind-numKinds] {
		var buf [maxBurst]Event
		c.dequesMu.Lock()
		for _, e := range Expand(buf[:0], Event{Kind: kind, W: int32(w), A: a, B: b, C: cc &^ int64(tail[kind])}) {
			c.deques.fold(e.W, e.Kind, e.A, e.B)
		}
		c.dequesMu.Unlock()
	}
}

// records returns the records observed so far, by kind: every lane's
// count of the kind, plus those of the bursts it is part of.
func (c *Counters) records() (n [numKinds]int64) {
	var all [numKinds + numBursts]int64
	for i := range c.lanes {
		for k := range all {
			all[k] += c.lanes[i].counts[k].Load()
		}
		n[EvStealAttempt] += c.lanes[i].tails.Load()
	}
	for k := range n {
		n[k] += all[k]
	}
	for b, per := range burstRecords {
		for k, m := range per {
			n[k] += m * all[numKinds+Kind(b)]
		}
	}
	return n
}

// Count returns the number of records of one kind observed so far.
func (c *Counters) Count(k Kind) int64 {
	if k >= numKinds {
		return 0
	}
	return c.records()[k]
}

// LiveSummary returns the counter-derivable slice of the Summary schema,
// computed from the live atomics: thread/job/steal/dispatch/quota
// counters and the derived rates. DequeHighWater counts a steal's new
// deque from the next membership record on (see dequeGauge). Stream-only fields (WallNs, PerWorker,
// Cache, Policy/Workers/K metadata) are zero — the caller knows its own
// configuration. Safe to call at any time; each field is atomically
// read, though the set as a whole is not one consistent snapshot.
func (c *Counters) LiveSummary() Summary {
	var s Summary
	n := c.records()
	for i := range c.lanes {
		s.DummyThreads += c.lanes[i].dummies.Load()
	}
	for _, v := range n {
		s.Events += int(v)
	}
	// Threads: every fork plus every job root.
	s.Jobs = n[EvJobBegin]
	s.Threads = n[EvFork] + s.Jobs
	s.CanceledJobs = n[EvJobCancel]
	s.Completed = n[EvComplete]
	s.Dispatches = n[EvDispatch]
	s.LocalDispatches = n[EvPop]
	s.Steals = n[EvSteal]
	s.StealAttempts = n[EvStealAttempt]
	s.QuotaExhausts = n[EvQuotaExhaust]
	s.DummySplits = n[EvAllocExempt]
	s.Promotions = n[EvPromote]
	c.dequesMu.Lock()
	s.DequeHighWater = int(c.deques.max)
	c.dequesMu.Unlock()
	if s.StealAttempts > 0 {
		s.StealSuccessRate = float64(s.Steals) / float64(s.StealAttempts)
	}
	if shared := s.Steals + n[EvQueueTake]; shared > 0 {
		s.SchedGranularity = float64(s.Dispatches) / float64(shared)
	}
	return s
}

// Tee returns a Probe that forwards every event to each probe in order
// (nils skipped); nil if none remain. It is how one runtime feeds both a
// live Counters and a replayable Recorder.
func Tee(probes ...Probe) Probe {
	kept := make(tee, 0, len(probes))
	for _, p := range probes {
		if p != nil {
			kept = append(kept, p)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

type tee []Probe

func (t tee) Event(w int, kind Kind, a, b, c int64) {
	for _, p := range t {
		p.Event(w, kind, a, b, c)
	}
}

// SetMeta forwards run metadata to each probe that accepts it (the
// Recorders inside the tee), so a teed recorder still gets the runtime's
// automatic metadata stamp.
func (t tee) SetMeta(m Meta) {
	for _, p := range t {
		if sm, ok := p.(interface{ SetMeta(Meta) }); ok {
			sm.SetMeta(m)
		}
	}
}
