package rtrace

import "sync/atomic"

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
	// liveDeques/maxDeques replay the deque population: EvSteal with a
	// new deque (C>=0) and EvDequeCreate raise it, EvDequeRetire lowers it.
	// Shared, not per lane: a gauge has no per-lane meaning, and all three
	// kinds are recorded under the R spine, which serializes them already.
	liveDeques atomic.Int64
	maxDeques  atomic.Int64
}

// counterLanes is a power of two: lane (w+1) mod counterLanes.
const counterLanes = 32

// counterLane is one recording worker's counts, padded to whole cache lines.
type counterLane struct {
	counts  [numKinds]atomic.Int64
	dummies atomic.Int64 // EvFork with C=1: dummy leaves
	_       [(64 - (int(numKinds)+1)*8%64) % 64]byte
}

// NewCounters returns a zeroed counter set.
func NewCounters() *Counters { return &Counters{} }

// Event implements Probe. Safe for concurrent use from any number of
// workers: every update is a plain atomic add or max.
func (c *Counters) Event(w int, kind Kind, a, b, cc int64) {
	if int(kind) >= int(numKinds) {
		return
	}
	ln := &c.lanes[(w+1)&(counterLanes-1)]
	ln.counts[kind].Add(1)
	switch kind {
	case EvFork:
		if cc == 1 {
			ln.dummies.Add(1)
		}
	case EvSteal:
		if cc >= 0 {
			c.bumpDeques()
		}
	case EvDequeCreate:
		c.bumpDeques()
	case EvDequeRetire:
		c.liveDeques.Add(-1)
	}
}

func (c *Counters) bumpDeques() {
	v := c.liveDeques.Add(1)
	for {
		m := c.maxDeques.Load()
		if v <= m || c.maxDeques.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of events of one kind observed so far.
func (c *Counters) Count(k Kind) int64 {
	if int(k) >= int(numKinds) {
		return 0
	}
	var n int64
	for i := range c.lanes {
		n += c.lanes[i].counts[k].Load()
	}
	return n
}

// LiveSummary returns the counter-derivable slice of the Summary schema,
// computed from the live atomics: thread/job/steal/dispatch/quota
// counters and the derived rates. Stream-only fields (WallNs, PerWorker,
// Cache, Policy/Workers/K metadata) are zero — the caller knows its own
// configuration. Safe to call at any time; each field is atomically
// read, though the set as a whole is not one consistent snapshot.
func (c *Counters) LiveSummary() Summary {
	var s Summary
	var n [numKinds]int64
	for i := range c.lanes {
		ln := &c.lanes[i]
		for k := range n {
			n[k] += ln.counts[k].Load()
		}
		s.DummyThreads += ln.dummies.Load()
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
	s.DequeHighWater = int(c.maxDeques.Load())
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
