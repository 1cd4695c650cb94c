package rtrace

import (
	"dfdeques/internal/cache"
)

// This file scores a traced run's locality as parallel cache complexity,
// the framework of "Analysis of Work-Stealing and Parallel Cache
// Complexity" (see PAPERS.md): simulate one cache per worker, feed each
// worker's EvTouch stream through its cache in recorded order, and compare
// the summed parallel misses against the misses of the same touches
// replayed in the serial depth-first (1DF) order on a single cache. The
// parallel excess is bounded by the schedule's *deviations* — the points
// where a worker's execution order departs from the sequential one — so
// the report also counts them: steals, global-queue takes, and migrations
// (a thread redispatched on a different worker than it last ran on).
//
// This is the repo's quantified counterpart of the paper's Fig. 1: the
// per-worker caches use the same geometry as the simulator's L2 model
// (cache.DefaultConfig, the Enterprise 5000's 512 kB per-processor L2),
// and schedulers that keep fork subtrees on one worker (DFDeques with a
// modest K) should show parallel misses close to the sequential baseline,
// while schedulers that scatter threads (WS on fine-grained work, FIFO)
// pay for every scattered reuse.
//
// The sequential baseline is exact for the fork structure: EvFork and
// EvTouch events recorded by the executing worker appear in that thread's
// program order in the Seq-merged stream, so each thread's interleaving of
// touches and forks is known, and the 1DF order is reproduced by walking
// the fork tree child-first (job roots in submission order). For programs
// whose Futures or Mutexes would block a serial depth-first execution,
// that walk is the touch order of the suspension-free serial execution —
// the standard baseline, even though no real 1-worker run could follow it.

// CacheSummary is the parallel cache-complexity report attached to a
// Summary when the stream contains touch events.
type CacheSummary struct {
	CapacityBytes int64 `json:"capacity_bytes"`
	LineBytes     int64 `json:"line_bytes"`
	Touches       int64 `json:"touches"`
	TouchedBytes  int64 `json:"touched_bytes"`

	// ParMisses sums misses across the per-worker caches; SeqMisses is the
	// single-cache 1DF replay. ExtraMisses = max(0, Par−Seq) is the
	// schedule's cache overhead (parallelism can also *reduce* misses —
	// p caches hold p times the lines — in which case ExtraMisses is 0).
	ParMisses   int64   `json:"par_misses"`
	SeqMisses   int64   `json:"seq_misses"`
	ExtraMisses int64   `json:"extra_misses"`
	ParMissRate float64 `json:"par_miss_rate"`
	SeqMissRate float64 `json:"seq_miss_rate"`

	// Deviations = Steals + QueueTakes + Migrations: the schedule-order
	// disruptions that bound the parallel excess.
	Deviations int64 `json:"deviations"`
	Steals     int64 `json:"steals"`
	QueueTakes int64 `json:"queue_takes"`
	Migrations int64 `json:"migrations"`

	WorkerMisses []int64 `json:"worker_misses"`
}

// cacheConfig aliases cache.Config so Summarize can request the default
// geometry without importing internal/cache itself.
type cacheConfig = cache.Config

// progItem is one step of a thread's recorded program: a fork (child != 0)
// or a touch.
type progItem struct {
	child int64
	blk   int32
	bytes int64
}

// CacheComplexity replays a recorded stream's touch events through the
// parallel cache model. It returns nil when the stream contains no
// touches. A zero cfg uses cache.DefaultConfig.
func CacheComplexity(meta Meta, evs []Event, cfg cache.Config) *CacheSummary {
	if cfg.CapacityBytes == 0 && cfg.LineBytes == 0 {
		cfg = cache.DefaultConfig()
	}
	workers := meta.Workers
	if workers < 1 {
		workers = 1
	}
	pp := cache.NewParallel(workers, cfg)
	cs := &CacheSummary{
		CapacityBytes: cfg.CapacityBytes,
		LineBytes:     pp.Seq().Config().LineBytes,
	}

	// Pass 1: feed the per-worker caches in stream order, collect each
	// thread's program (touches and forks), count deviations.
	prog := map[int64][]progItem{}
	var roots []int64   // job roots in submission order
	var orphans []int64 // tids seen only via touch (defensive), in order
	lastW := map[int64]int32{}
	for i := range evs {
		e := &evs[i]
		switch e.Kind {
		case EvTouch:
			cs.Touches++
			cs.TouchedBytes += e.C
			cs.ParMisses += pp.Touch(int(e.W), int32(e.B), e.C)
			if _, ok := prog[e.A]; !ok {
				orphans = append(orphans, e.A)
			}
			prog[e.A] = append(prog[e.A], progItem{blk: int32(e.B), bytes: e.C})
		case EvFork:
			if _, ok := prog[e.A]; !ok {
				orphans = append(orphans, e.A)
			}
			prog[e.A] = append(prog[e.A], progItem{child: e.B})
			if _, ok := prog[e.B]; !ok {
				prog[e.B] = nil // registered: not an orphan
			}
		case EvJobBegin:
			roots = append(roots, e.B)
			if _, ok := prog[e.B]; !ok {
				prog[e.B] = nil
			}
		case EvSteal:
			cs.Steals++
		case EvQueueTake:
			cs.QueueTakes++
		case EvDispatch:
			if w, ok := lastW[e.A]; ok && w != e.W {
				cs.Migrations++
			}
			lastW[e.A] = e.W
		}
	}
	if cs.Touches == 0 {
		return nil
	}
	cs.Deviations = cs.Steals + cs.QueueTakes + cs.Migrations

	// Pass 2: the 1DF serial replay — walk each job's fork tree with the
	// child executing immediately at its fork point (depth-first), jobs
	// back to back in submission order.
	visited := map[int64]bool{}
	type frame struct {
		tid int64
		idx int
	}
	walk := func(root int64) {
		if visited[root] {
			return
		}
		visited[root] = true
		stack := []frame{{tid: root}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			items := prog[f.tid]
			if f.idx >= len(items) {
				stack = stack[:len(stack)-1]
				continue
			}
			it := items[f.idx]
			f.idx++
			if it.child != 0 {
				if !visited[it.child] {
					visited[it.child] = true
					stack = append(stack, frame{tid: it.child})
				}
			} else {
				cs.SeqMisses += pp.SeqTouch(it.blk, it.bytes)
			}
		}
	}
	for _, r := range roots {
		walk(r)
	}
	for _, tid := range orphans {
		walk(tid)
	}

	if cs.ParMisses > cs.SeqMisses {
		cs.ExtraMisses = cs.ParMisses - cs.SeqMisses
	}
	if lines := linesOf(cs, pp); lines > 0 {
		cs.ParMissRate = float64(cs.ParMisses) / float64(lines)
		cs.SeqMissRate = float64(cs.SeqMisses) / float64(lines)
	}
	cs.WorkerMisses = make([]int64, workers)
	for w := 0; w < workers; w++ {
		_, m := pp.Worker(w).Stats()
		cs.WorkerMisses[w] = m
	}
	return cs
}

// linesOf returns the total line accesses of the replay (identical for the
// parallel and sequential passes — same touches, same line geometry).
func linesOf(cs *CacheSummary, pp *cache.Parallel) int64 {
	h, m := pp.ParStats()
	return h + m
}
