// Package machine is a deterministic, synchronized-timestep multiprocessor
// simulator implementing the cost model of Narlikar (SPAA '99), §4.1:
//
//   - every action (dag node) takes one timestep on one processor;
//   - idle processors make one steal attempt per timestep; if several
//     steals target one deque, one succeeds and the rest fail; steals at
//     empty deques fail;
//   - a successful steal executes the stolen thread's first action in the
//     same timestep;
//   - empty deques are deleted as soon as their owner goes idle.
//
// The machine drives the live runtime's own scheduling policies
// (internal/policy: DFDeques, which is WS at K = ∞; ADF; FIFO), named by
// Config.Scheduler, calling the policy at every scheduling event. It adds
// only what belongs to the cost model: the steal round and its victim
// draws from the machine's seeded rng, the queue-latency stalls, the
// steal and local-dispatch counts, DFDeques' two ablation switches and
// the §7 adaptive-K controller.
//
// On top of the pure model, optional realism extensions reproduce the
// effects the paper measures on real hardware (§5): a per-processor LRU
// cache with a miss penalty (locality → running time), latencies for
// steals and global-queue operations (scheduling contention), and a
// per-live-thread stack reservation (the 8 kB Pthread stacks).
package machine

import (
	"errors"
	"fmt"
	"math/rand"

	"dfdeques/internal/cache"
	"dfdeques/internal/dag"
	"dfdeques/internal/policy"
	"dfdeques/internal/rtrace"
)

// Realism is the §5 cost model: per-processor caches with a miss penalty
// (locality → time), a lock-protected deque list (steal latency), a
// contended global queue (queue latency), and 8 kB thread stacks. The
// rates are identical for every scheduler, so between-scheduler
// comparisons depend only on scheduling behaviour. DESIGN.md §3 documents
// the substitution.
func Realism(procs int, seed int64) Config {
	return Config{
		Procs:              procs,
		Seed:               seed,
		MissPenalty:        20,
		Cache:              cache.Config{CapacityBytes: 32 << 10, LineBytes: 64},
		StackBytes:         8192,
		StealLatency:       6,
		QueueLatency:       3,
		MemPressureBytes:   2 << 20,
		MemPressurePenalty: 60,
	}
}

// Config parameterizes a simulation.
type Config struct {
	Procs int   // number of processors (p ≥ 1)
	Seed  int64 // seed for all scheduling randomness

	// The scheduler, under the names dfdeques.SimConfig gives it.

	// Scheduler is one of Names. "DFD-inf" and "WS" both name
	// DFDeques(∞). Run refuses any other name.
	Scheduler string
	// K is the memory threshold in bytes of DFD and ADF (0 = ∞);
	// DFD-inf, WS and FIFO have none and ignore it.
	K int64
	// StealFromTop, FullWindow and AdaptiveTarget are DFDeques variants;
	// Run refuses them for ADF and FIFO. StealFromTop is an ablation:
	// thieves pop the victim deque's top (its newest, finest thread)
	// instead of the bottom, which the paper argues is "typically the
	// coarsest thread in the queue" (§1). FullWindow is an ablation too:
	// victims are drawn from all of R instead of the leftmost p deques,
	// the window that keeps stolen threads close to the 1DF order and the
	// Theorem 4.4 bound in force.
	StealFromTop bool
	FullWindow   bool
	// AdaptiveTarget, when positive, turns on the controller the paper
	// sketches as future work (§7: "dynamically set K to an appropriate
	// value during the execution"): K doubles while the live heap stays
	// under AdaptiveTarget/2 and halves while it exceeds AdaptiveTarget,
	// clamped to [64 B, 16 MB]. K is the starting value, so Run refuses a
	// target when the threshold is ∞.
	AdaptiveTarget int64

	// Cost-model extensions; all zero values give the paper's pure §4.1
	// model.

	// MissPenalty is the stall, in timesteps, per missed cache line.
	MissPenalty int64
	// Cache configures the per-processor data cache; a zero CapacityBytes
	// disables it.
	Cache cache.Config
	// StackBytes charges this many bytes of space per live thread,
	// modeling the minimum 8 kB Pthread stack of §5.2.
	StackBytes int64
	// StealLatency stalls a successful stealer this many timesteps,
	// modeling the lock-protected deque list R of §5.
	StealLatency int64
	// QueueLatency stalls each global-queue operation (FIFO and ADF
	// dispatch, enqueue, preemption) this many timesteps, modeling
	// scheduling contention on a shared queue.
	QueueLatency int64
	// MemPressureBytes and MemPressurePenalty model the §5.2 observation
	// that schedulers creating thousands of live threads spend significant
	// time in stack-allocation system calls and paging: every fork
	// executed while total live space (heap + stacks) exceeds
	// MemPressureBytes stalls the forking processor MemPressurePenalty
	// timesteps. Zero disables the model.
	MemPressureBytes   int64
	MemPressurePenalty int64
	// SpinLocks makes contended OpAcquire spin (burning one action per
	// timestep) instead of blocking, as Cilk's locks do (Fig. 17).
	SpinLocks bool

	// Record keeps the run's schedule as an rtrace stream, the one the
	// live runtime records: the policy's half of every decision through
	// its probe, and the machine's own (job begin and end, dispatch, the
	// suspend at a join, a lock's block, complete, alloc, free, touch,
	// dummy, each move of the adaptive K), stamped with the timestep.
	// Read it with Stream; rtrace.Verify replays it.
	Record bool
	// MaxSteps aborts runs longer than this many timesteps (safety net for
	// scheduling bugs). 0 means 1e9.
	MaxSteps int64
	// SampleEvery, when > 0, records the live space (heap +
	// StackBytes·threads) every that-many timesteps; read the series with
	// Machine.SpaceProfile. Powers the space-over-time profiles.
	SampleEvery int64
	// DisableFastForward turns off the bulk-advance optimization, forcing
	// one loop iteration per timestep. The results must be identical
	// either way (property-tested); this exists to test that claim.
	DisableFastForward bool
}

// Metrics are the observable results of a run.
type Metrics struct {
	Steps   int64 // total timesteps (the computation's running time T_p)
	Actions int64 // unit actions executed, including dummy and spin actions

	Steals          int64 // successful shared acquisitions (steals / global-queue takes)
	FailedSteals    int64 // failed steal attempts
	LocalDispatches int64 // threads taken from the processor's own deque
	Preemptions     int64 // quota-exhaustion preemptions

	TotalThreads   int64 // dynamic threads created (incl. dummies)
	MaxLiveThreads int64 // max simultaneously live threads
	DummyThreads   int64 // dummy threads created by the big-alloc transformation

	HeapHW  int64 // high-water mark of net heap bytes
	SpaceHW int64 // high-water mark of heap + StackBytes·liveThreads

	CacheHits   int64
	CacheMisses int64
	SpinActions int64 // actions burnt spinning on locks
	StallSteps  int64 // processor-timesteps lost to stalls (miss penalties, latencies)
	IdleSteps   int64 // processor-timesteps spent idle (failed steals / nothing to do)
}

// MissRate returns the cache miss rate in percent.
func (m Metrics) MissRate() float64 {
	tot := m.CacheHits + m.CacheMisses
	if tot == 0 {
		return 0
	}
	return 100 * float64(m.CacheMisses) / float64(tot)
}

// SchedGranularity returns the average number of actions executed per
// successful steal — the paper's measure of scheduling granularity (§6).
func (m Metrics) SchedGranularity() float64 {
	if m.Steals == 0 {
		return float64(m.Actions)
	}
	return float64(m.Actions) / float64(m.Steals)
}

type proc struct {
	id    int
	curr  *Thread
	stall int64
	cache *cache.Cache
}

type lockState struct {
	holder  *Thread
	waiters []*Thread
}

// Machine simulates one run of a computation under one scheduler.
type Machine struct {
	Cfg Config

	// The scheduler: pol is the policy the live runtime runs too. When it
	// is DFDeques or ADF, dfd or adf holds it as well, for the
	// serial-engine entries the steal round and the fork call.
	pol       policy.Policy[*Thread]
	dfd       *policy.DFD[*Thread]
	adf       *policy.ADF[*Thread]
	rng       *rand.Rand
	adaptTick int64 // damping counter of the adaptive controller

	procs []*proc
	locks map[dag.LockID]*lockState

	heapLive    int64
	liveThreads int64
	readyCount  int64

	met        Metrics
	nextID     int64
	maxSteps   int64
	dummyTrees map[int64]*dag.ThreadSpec
	profile    []int64
	nextSample int64
	rec        stream // empty unless Config.Record
}

// SpaceProfile returns the live-space samples recorded at
// Config.SampleEvery intervals (nil if sampling was off).
func (m *Machine) SpaceProfile() []int64 { return m.profile }

// New builds a machine for one run under cfg.
func New(cfg Config) *Machine {
	if cfg.Procs < 1 {
		panic("machine: Procs must be ≥ 1")
	}
	m := &Machine{
		Cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		locks: make(map[dag.LockID]*lockState),
	}
	m.maxSteps = cfg.MaxSteps
	if m.maxSteps == 0 {
		m.maxSteps = 1e9
	}
	for i := 0; i < cfg.Procs; i++ {
		m.procs = append(m.procs, &proc{id: i, cache: cache.New(cfg.Cache)})
	}
	return m
}

// Run executes the computation rooted at spec to completion and returns
// the run's metrics. It refuses an unknown scheduler name and a DFDeques
// variant on a scheduler that has none. Under a finite memory threshold,
// allocations larger than the (possibly adaptive) current threshold are
// rewritten at runtime with the dummy-thread transformation (§3.3: "this
// transformation takes place at runtime").
func (m *Machine) Run(spec *dag.ThreadSpec) (Metrics, error) {
	if err := dag.Validate(spec); err != nil {
		return Metrics{}, err
	}
	if err := m.newPolicy(); err != nil {
		return Metrics{}, err
	}
	root := m.newThread(spec, nil, false)
	m.set(root, Ready)
	m.record(-1, rtrace.EvJobBegin, 1, root.ID, 0)
	m.pol.Seed(root)

	for m.liveThreads > 0 {
		if m.met.Steps >= m.maxSteps {
			return m.met, fmt.Errorf("machine: exceeded %d timesteps (scheduling bug or livelock?)", m.maxSteps)
		}
		m.met.Steps++

		// Steal phase: idle processors attempt one steal each.
		var idle []int
		for _, p := range m.procs {
			if p.curr == nil && p.stall == 0 {
				idle = append(idle, p.id)
			}
		}
		if len(idle) > 0 {
			m.stealRound(idle)
		}

		// Execute phase: each processor advances one unit.
		anyRunning := false
		for _, p := range m.procs {
			switch {
			case p.stall > 0:
				p.stall--
				m.met.StallSteps++
				anyRunning = true
			case p.curr != nil:
				m.stepProc(p)
				anyRunning = true
			default:
				m.met.IdleSteps++
				if len(idle) > 0 {
					// Was in the steal round but got nothing.
					m.met.FailedSteals++
				}
			}
		}

		if !anyRunning && m.liveThreads > 0 && m.readyCount == 0 {
			return m.met, errors.New("machine: deadlock — live threads but none ready or running")
		}

		if n := m.Cfg.SampleEvery; n > 0 && m.met.Steps >= m.nextSample {
			// Live space is constant across fast-forwarded stretches, so
			// one sample per crossed boundary loses nothing.
			m.profile = append(m.profile, m.heapLive+m.Cfg.StackBytes*m.liveThreads)
			for m.nextSample <= m.met.Steps {
				m.nextSample += n
			}
		}
		m.fastForward()
	}
	m.aggregateCaches()
	return m.met, nil
}

// aggregateCaches folds per-processor cache statistics into the metrics.
func (m *Machine) aggregateCaches() {
	m.met.CacheHits, m.met.CacheMisses = 0, 0
	for _, p := range m.procs {
		h, mi := p.cache.Stats()
		m.met.CacheHits += h
		m.met.CacheMisses += mi
	}
}

// fastForward advances time in bulk when every processor is mid-way
// through a long work instruction or stall, which cannot create scheduling
// events. It is observationally equivalent to stepping one timestep at a
// time.
func (m *Machine) fastForward() {
	if m.Cfg.DisableFastForward {
		return
	}
	delta := int64(1<<62 - 1)
	for _, p := range m.procs {
		var rem int64
		switch {
		case p.stall > 0:
			rem = p.stall
		case p.curr != nil && p.curr.workLeft > 0:
			rem = p.curr.workLeft
		default:
			return // idle or at an instruction boundary: no fast path
		}
		if rem < delta {
			delta = rem
		}
	}
	delta-- // leave the final unit for the normal per-step path
	if delta <= 0 {
		return
	}
	m.met.Steps += delta
	for _, p := range m.procs {
		if p.stall > 0 {
			p.stall -= delta
			m.met.StallSteps += delta
		} else {
			p.curr.workLeft -= delta
			m.met.Actions += delta
		}
	}
}

func (m *Machine) newThread(spec *dag.ThreadSpec, parent *Thread, dummy bool) *Thread {
	m.nextID++
	t := &Thread{ID: m.nextID, Spec: spec, Parent: parent, Dummy: dummy}
	m.liveThreads++
	m.met.TotalThreads++
	if dummy {
		m.met.DummyThreads++
	}
	if m.liveThreads > m.met.MaxLiveThreads {
		m.met.MaxLiveThreads = m.liveThreads
	}
	m.noteSpace()
	return t
}

func (m *Machine) noteSpace() {
	if m.heapLive > m.met.HeapHW {
		m.met.HeapHW = m.heapLive
	}
	if s := m.heapLive + m.Cfg.StackBytes*m.liveThreads; s > m.met.SpaceHW {
		m.met.SpaceHW = s
	}
}

// set moves t to state s, keeping the counts of ready and live threads.
func (m *Machine) set(t *Thread, s State) {
	if t.State == Ready {
		m.readyCount--
	}
	if s == Ready {
		m.readyCount++
	} else if s == Dead {
		m.liveThreads--
	}
	t.State = s
}

// HeapLive returns the current net heap allocation in bytes.
func (m *Machine) HeapLive() int64 { return m.heapLive }

// stream is the machine's rtrace.Probe: one serial lane, each record
// stamped with the timestep and numbered in call order, bursts laid out
// as their records.
type stream struct {
	meta rtrace.Meta
	step *int64
	evs  []rtrace.Event
}

func (s *stream) Event(w int, k rtrace.Kind, a, b, c int64) {
	s.evs = rtrace.Expand(s.evs, rtrace.Event{
		Seq: uint64(len(s.evs)) + 1, TS: *s.step, Kind: k, W: int32(w), A: a, B: b, C: c,
	})
}

// record writes one of the machine's own records when Config.Record is
// set.
func (m *Machine) record(w int, k rtrace.Kind, a, b, c int64) {
	if m.Cfg.Record {
		m.rec.Event(w, k, a, b, c)
	}
}

// Stream returns the run's recorded stream and its metadata (Engine
// rtrace.EngineSim, K the threshold the run started with); both are zero
// unless Config.Record was set.
func (m *Machine) Stream() (rtrace.Meta, []rtrace.Event) { return m.rec.meta, m.rec.evs }
