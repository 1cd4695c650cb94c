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
	"io"
	"math/rand"

	"dfdeques/internal/cache"
	"dfdeques/internal/dag"
	"dfdeques/internal/policy"
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

	// CheckInvariants runs the scheduler's invariant checker after every
	// timestep (Lemma 3.1 for DFDeques). Slow; for tests. Run refuses it
	// on a program that takes locks, which is outside the lemma.
	CheckInvariants bool
	// Trace, when non-nil, receives one line per scheduling event
	// (steal, fork, join-suspend, terminate, preempt, dummy). For
	// debugging and cmd/dfdtrace; slows simulation considerably.
	Trace io.Writer
	// Observer, when non-nil, receives every scheduling event in
	// structured form: the timestep, the processor, the event kind, and
	// the thread's creation-ordered ID. Conformance tests use it to audit
	// whole schedules (e.g. 1DF-order equivalence on one processor).
	Observer func(step int64, proc int, kind string, threadID int64)
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

	heapLive     int64
	liveThreads  int64
	readyCount   int64
	runningCount int64

	met        Metrics
	nextID     int64
	maxSteps   int64
	dummyTrees map[int64]*dag.ThreadSpec
	profile    []int64
	nextSample int64
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
	if m.Cfg.CheckInvariants && takesLocks(spec, map[*dag.ThreadSpec]bool{}) {
		return Metrics{}, errors.New("machine: CheckInvariants on a program that takes locks: " +
			"Lemma 3.1 and the schedulers' invariants hold for nested-parallel programs only")
	}
	root := m.newThread(spec, nil, false)
	m.setReady(root)
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

		if m.Cfg.CheckInvariants {
			if err := m.checkInvariants(); err != nil {
				return m.met, fmt.Errorf("machine: after step %d: %w", m.met.Steps, err)
			}
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

// takesLocks reports whether any thread of the spec tree acquires a lock.
func takesLocks(spec *dag.ThreadSpec, seen map[*dag.ThreadSpec]bool) bool {
	if seen[spec] {
		return false
	}
	seen[spec] = true
	for _, in := range spec.Instrs {
		if in.Op == dag.OpAcquire || in.Op == dag.OpFork && takesLocks(in.Child, seen) {
			return true
		}
	}
	return false
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

// --- state-count bookkeeping -------------------------------------------

func (m *Machine) setReady(t *Thread) {
	m.adjustCounts(t.State, Ready)
	t.State = Ready
}

func (m *Machine) setRunning(t *Thread) {
	m.adjustCounts(t.State, Running)
	t.State = Running
}

func (m *Machine) setSuspended(t *Thread) {
	m.adjustCounts(t.State, SuspendedJoin)
	t.State = SuspendedJoin
}

func (m *Machine) setBlocked(t *Thread) {
	m.adjustCounts(t.State, BlockedLock)
	t.State = BlockedLock
}

func (m *Machine) setDead(t *Thread) {
	m.adjustCounts(t.State, Dead)
	t.State = Dead
	m.liveThreads--
}

func (m *Machine) adjustCounts(from, to State) {
	if from == Ready {
		m.readyCount--
	}
	if from == Running {
		m.runningCount--
	}
	if to == Ready {
		m.readyCount++
	}
	if to == Running {
		m.runningCount++
	}
}

// HeapLive returns the current net heap allocation in bytes.
func (m *Machine) HeapLive() int64 { return m.heapLive }

// trace logs a scheduling event to the trace writer and the observer.
func (m *Machine) trace(p int, ev string, t *Thread) {
	if m.Cfg.Trace == nil && m.Cfg.Observer == nil {
		return
	}
	id := int64(-1)
	label := "-"
	if t != nil {
		id = t.ID
		label = t.Spec.Label
	}
	if m.Cfg.Observer != nil {
		m.Cfg.Observer(m.met.Steps, p, ev, id)
	}
	if m.Cfg.Trace != nil {
		fmt.Fprintf(m.Cfg.Trace, "step=%d proc=%d %-9s thread=%d (%s)\n", m.met.Steps, p, ev, id, label)
	}
}
