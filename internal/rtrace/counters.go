package rtrace

import "sync/atomic"

// Counters is a Probe that maintains live aggregate counters instead of a
// replayable stream: the always-on metrics half of the observability
// subsystem. Where Recorder captures every event for export and replay
// verification (and drops the oldest on ring wrap), Counters folds each
// event into a fixed set of atomics on arrival — O(numKinds) memory, no
// drops, readable at any instant while the run is still going. It exists
// for long-lived serving processes (cmd/dfdserve's /metrics endpoint)
// where a run never "completes" and a scrape must not stop the world.
//
// LiveSummary projects the counters onto the Summary schema, and
// Summarize is the same fold driven by a recorded stream (it feeds the
// stream through a Counters), so downstream consumers (metric exporters,
// dashboards) read one shape regardless of source; the stream-only fields
// (WallNs, PerWorker, Cache) stay zero here. Use Tee to feed one runtime's
// events to both a Counters and a Recorder.
type Counters struct {
	counts  [numKinds]atomic.Int64
	dummies atomic.Int64 // EvFork with C=1: dummy leaves
	// liveDeques/maxDeques replay the deque population: EvSteal with a
	// new deque (C>=0) and EvDequeCreate raise it, EvDequeRetire lowers it.
	liveDeques atomic.Int64
	maxDeques  atomic.Int64
}

// NewCounters returns a zeroed counter set.
func NewCounters() *Counters { return &Counters{} }

// Event implements Probe. Safe for concurrent use from any number of
// workers: every update is a plain atomic add or max.
func (c *Counters) Event(w int, kind Kind, a, b, cc int64) {
	if int(kind) >= int(numKinds) {
		return
	}
	c.counts[kind].Add(1)
	switch kind {
	case EvFork:
		if cc == 1 {
			c.dummies.Add(1)
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
	return c.counts[k].Load()
}

// LiveSummary returns the counter-derivable slice of the Summary schema,
// computed from the live atomics: thread/job/steal/dispatch/quota
// counters and the derived rates. Stream-only fields (WallNs, PerWorker,
// Cache, Policy/Workers/K metadata) are zero — the caller knows its own
// configuration. Safe to call at any time; each field is atomically
// read, though the set as a whole is not one consistent snapshot.
func (c *Counters) LiveSummary() Summary {
	var s Summary
	for k := Kind(0); k < numKinds; k++ {
		s.Events += int(c.counts[k].Load())
	}
	// Threads: every fork plus every job root.
	s.Jobs = c.Count(EvJobBegin)
	s.Threads = c.Count(EvFork) + s.Jobs
	s.DummyThreads = c.dummies.Load()
	s.CanceledJobs = c.Count(EvJobCancel)
	s.Completed = c.Count(EvComplete)
	s.Dispatches = c.Count(EvDispatch)
	s.LocalDispatches = c.Count(EvPop)
	s.Steals = c.Count(EvSteal)
	s.StealAttempts = c.Count(EvStealAttempt)
	s.QuotaExhausts = c.Count(EvQuotaExhaust)
	s.DummySplits = c.Count(EvAllocExempt)
	s.Promotions = c.Count(EvPromote)
	s.DequeHighWater = int(c.maxDeques.Load())
	if s.StealAttempts > 0 {
		s.StealSuccessRate = float64(s.Steals) / float64(s.StealAttempts)
	}
	if shared := s.Steals + c.Count(EvQueueTake); shared > 0 {
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
