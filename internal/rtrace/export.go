package rtrace

import (
	"encoding/json"
	"fmt"
	"io"
)

// WorkerSummary is one worker's busy/idle breakdown over the run.
type WorkerSummary struct {
	Worker   int     `json:"worker"`
	BusyNs   int64   `json:"busy_ns"`
	IdleNs   int64   `json:"idle_ns"`
	BusyFrac float64 `json:"busy_frac"`
	Steals   int64   `json:"steals"`
}

// Summary is the compact per-run metrics report derived from an event
// stream: the real-runtime counterpart of the simulator's metric printout,
// emitted by `dfdsim -real -trace` and embedded in the trace file.
type Summary struct {
	Policy           string  `json:"policy"`
	Workers          int     `json:"workers"`
	K                int64   `json:"k"`
	Events           int     `json:"events"`
	Dropped          uint64  `json:"dropped"`
	WallNs           int64   `json:"wall_ns"`
	Threads          int64   `json:"threads"`
	DummyThreads     int64   `json:"dummy_threads"`
	Jobs             int64   `json:"jobs,omitempty"`
	CanceledJobs     int64   `json:"canceled_jobs,omitempty"`
	Completed        int64   `json:"completed"`
	Dispatches       int64   `json:"dispatches"`
	LocalDispatches  int64   `json:"local_dispatches"`
	Steals           int64   `json:"steals"`
	StealAttempts    int64   `json:"steal_attempts"`
	StealSuccessRate float64 `json:"steal_success_rate"`
	SchedGranularity float64 `json:"sched_granularity"` // dispatches per shared acquisition
	QuotaExhausts    int64   `json:"quota_exhausts"`
	DummySplits      int64   `json:"dummy_splits"`

	// Promotions counts EvPromote events: inline continuation frames
	// that had to grow a goroutine + channel pair because they were
	// stolen or they blocked. Threads − Promotions is the number of forks
	// that ran to completion without ever paying for a frame.
	Promotions     int64           `json:"promotions,omitempty"`
	DequeHighWater int             `json:"deque_high_water"`
	PerWorker      []WorkerSummary `json:"per_worker"`

	// Cache is the parallel cache-complexity report (cachecplx.go),
	// present when the stream contains EvTouch events; computed with the
	// default cache geometry (the paper's 512 kB L2). Use CacheComplexity
	// directly for other geometries.
	Cache *CacheSummary `json:"cache,omitempty"`
}

// Summarize derives the metrics summary from a merged stream. The counter
// fields come from the same fold that serves live scrapes — the stream is
// fed through a Counters and projected with LiveSummary — and this pass
// adds only what needs the stream itself: wall clock, per-worker busy
// time, the cache replay, and the run metadata.
func Summarize(meta Meta, evs []Event, dropped uint64) Summary {
	var c Counters
	perW := make([]WorkerSummary, meta.Workers)
	for i := range perW {
		perW[i].Worker = i
	}
	since := make([]int64, meta.Workers) // start of w's open execution segment, -1 if none
	for i := range since {
		since[i] = -1
	}
	var wallNs int64
	touches := false
	for _, e := range evs {
		c.Event(int(e.W), e.Kind, e.A, e.B, e.C)
		if e.TS > wallNs {
			wallNs = e.TS
		}
		w := int(e.W)
		if e.Kind == EvTouch {
			touches = true
		}
		if w < 0 || w >= meta.Workers {
			continue
		}
		switch e.Kind {
		case EvComplete, EvBlock, EvQuotaExhaust:
			if since[w] >= 0 {
				perW[w].BusyNs += e.TS - since[w]
				since[w] = -1
			}
		case EvDispatch:
			if since[w] < 0 {
				since[w] = e.TS
			}
		case EvSteal:
			perW[w].Steals++
		}
	}
	c.deques.settle() // a steal the stream ends on
	s := c.LiveSummary()
	s.Policy, s.Workers, s.K = meta.Policy, meta.Workers, meta.K
	s.Dropped, s.WallNs = dropped, wallNs
	if touches {
		s.Cache = CacheComplexity(meta, evs, cacheConfig{})
	}
	for w := range perW {
		if since[w] >= 0 { // close at end of run
			perW[w].BusyNs += wallNs - since[w]
		}
		perW[w].IdleNs = wallNs - perW[w].BusyNs
		if wallNs > 0 {
			perW[w].BusyFrac = float64(perW[w].BusyNs) / float64(wallNs)
		}
	}
	s.PerWorker = perW
	// Only DFDeques creates and retires deques; the queue policies' one
	// queue is a ready structure the stream does not spell out.
	if meta.Policy == "ADF" || meta.Policy == "FIFO" {
		s.DequeHighWater = 1
	}
	return s
}

// traceFile is the on-disk format: valid Chrome trace_event JSON (object
// form, loadable in chrome://tracing and Perfetto, which ignore the dfd*
// keys) carrying the raw stream and metadata for post-hoc replay.
type traceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	DfdMeta         Meta          `json:"dfdMeta"`
	DfdEvents       [][7]int64    `json:"dfdEvents"`
	DfdDropped      uint64        `json:"dfdDropped"`
	DfdSummary      *Summary      `json:"dfdSummary,omitempty"`
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

const tracePID = 1

// us converts an event timestamp to Chrome's microsecond scale.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// Export writes the stream as Chrome trace_event JSON: one timeline row
// per worker with a slice per thread-execution segment, instant markers
// for steals, quota exhaustions and dummy splits, and counter tracks for
// the deque population and live heap. The raw stream rides along under
// the dfdEvents key so `dfdtrace -verify` can replay the same file.
func Export(w io.Writer, meta Meta, evs []Event, dropped uint64) error {
	sum := Summarize(meta, evs, dropped)
	tf := traceFile{
		DisplayTimeUnit: "ms",
		DfdMeta:         meta,
		DfdDropped:      dropped,
		DfdSummary:      &sum,
		DfdEvents:       make([][7]int64, 0, len(evs)),
	}
	for _, e := range evs {
		tf.DfdEvents = append(tf.DfdEvents,
			[7]int64{int64(e.Seq), e.TS, int64(e.Kind), int64(e.W), e.A, e.B, e.C})
	}

	out := &tf.TraceEvents
	*out = append(*out, chromeEvent{
		Name: "process_name", Ph: "M", PID: tracePID, TID: 0,
		Args: map[string]any{"name": fmt.Sprintf("grt %s p=%d K=%d seed=%d",
			meta.Policy, meta.Workers, meta.K, meta.Seed)},
	})
	*out = append(*out, chromeEvent{
		Name: "thread_name", Ph: "M", PID: tracePID, TID: 0,
		Args: map[string]any{"name": "scheduler (pre-run)"},
	})
	for i := 0; i < meta.Workers; i++ {
		*out = append(*out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: i + 1,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", i)},
		})
	}

	dummy := map[int64]bool{}
	type open struct {
		tid   int64
		since int64
	}
	running := map[int32]*open{}
	closeSlice := func(wk int32, end int64) {
		o := running[wk]
		if o == nil {
			return
		}
		name := fmt.Sprintf("t%d", o.tid)
		if dummy[o.tid] {
			name = fmt.Sprintf("dummy t%d", o.tid)
		}
		d := us(end - o.since)
		*out = append(*out, chromeEvent{
			Name: name, Ph: "X", TS: us(o.since), Dur: &d,
			PID: tracePID, TID: int(wk) + 1,
		})
		delete(running, wk)
	}
	instant := func(e Event, name string, args map[string]any) {
		*out = append(*out, chromeEvent{
			Name: name, Ph: "i", TS: us(e.TS), PID: tracePID, TID: int(e.W) + 1,
			Args: args,
		})
	}
	counter := func(ts int64, name string, val int64) {
		*out = append(*out, chromeEvent{
			Name: name, Ph: "C", TS: us(ts), PID: tracePID, TID: 0,
			Args: map[string]any{name: val},
		})
	}

	var heapLive int64
	var deques dequeGauge
	var heldTS int64 // the held steal's timestamp (see dequeGauge)
	lastTS := int64(0)
	for _, e := range evs {
		if e.TS > lastTS {
			lastTS = e.TS
		}
		settled, now := deques.fold(e.W, e.Kind, e.A, e.B)
		if settled >= 0 {
			counter(heldTS, "deques", settled)
		}
		if now >= 0 {
			counter(e.TS, "deques", now)
		}
		if e.Kind == EvSteal {
			heldTS = e.TS
		}
		switch e.Kind {
		case EvFork:
			if e.C == 1 {
				dummy[e.B] = true
			}
		case EvDispatch:
			closeSlice(e.W, e.TS)
			running[e.W] = &open{tid: e.A, since: e.TS}
		case EvBlock, EvComplete, EvQuotaExhaust:
			closeSlice(e.W, e.TS)
			if e.Kind == EvQuotaExhaust {
				instant(e, "quota-exhaust", map[string]any{"tid": e.A, "bytes": e.B})
			}
		case EvJobBegin:
			instant(e, "job-begin", map[string]any{"job": e.A, "root": e.B})
		case EvJobAnnotate:
			instant(e, "job-annotate", map[string]any{"job": e.A, "tenant": e.B, "tag": e.C})
		case EvJobCancel:
			instant(e, "job-cancel", map[string]any{"job": e.A})
		case EvJobEnd:
			instant(e, "job-end", map[string]any{"job": e.A, "failed": e.B == 1})
		case EvSteal:
			instant(e, "steal", map[string]any{"tid": e.A, "victim_deque": e.B, "new_deque": e.C})
		case EvAllocExempt:
			instant(e, "dummy-split", map[string]any{"tid": e.A, "bytes": e.B, "leaves": e.C})
			heapLive += e.B
			counter(e.TS, "heap", heapLive)
		case EvAlloc:
			heapLive += e.B
			counter(e.TS, "heap", heapLive)
		case EvFree:
			heapLive -= e.B
			counter(e.TS, "heap", heapLive)
		}
	}
	if n := deques.settle(); n >= 0 {
		counter(heldTS, "deques", n)
	}
	for wk := range running {
		closeSlice(wk, lastTS)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&tf)
}

// Load reads a trace file written by Export and returns the run metadata
// and the raw event stream for replay verification.
func Load(r io.Reader) (Meta, []Event, uint64, error) {
	var tf struct {
		DfdMeta    Meta       `json:"dfdMeta"`
		DfdEvents  [][7]int64 `json:"dfdEvents"`
		DfdDropped uint64     `json:"dfdDropped"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return Meta{}, nil, 0, fmt.Errorf("rtrace: malformed trace file: %w", err)
	}
	if tf.DfdMeta.Workers == 0 {
		return Meta{}, nil, 0, fmt.Errorf("rtrace: trace file has no dfdMeta (not written by Export?)")
	}
	evs := make([]Event, len(tf.DfdEvents))
	for i, r7 := range tf.DfdEvents {
		evs[i] = Event{
			Seq: uint64(r7[0]), TS: r7[1], Kind: Kind(r7[2]), W: int32(r7[3]),
			A: r7[4], B: r7[5], C: r7[6],
		}
	}
	return tf.DfdMeta, evs, tf.DfdDropped, nil
}
