package machine

// Scheduler is the policy half of the simulator. The Machine owns time,
// thread lifecycle, memory accounting, and the cost model; the scheduler
// owns ready-thread storage and decides which thread each processor runs
// next after every scheduling event.
//
// Every event hook returns the thread processor p should run next, or nil
// to leave the processor idle (it will participate in the next timestep's
// StealRound). The machine marks the returned thread Running; any other
// thread the scheduler keeps becomes Ready.
type Scheduler interface {
	// Name identifies the scheduler in reports ("DFD", "DFD-inf", "ADF", "FIFO").
	Name() string

	// Init is called once before the run with the machine and the root
	// thread. The scheduler must store the root so a StealRound can
	// dispatch it.
	Init(m *Machine, root *Thread)

	// MemThreshold returns the scheduler's memory threshold K in bytes, or
	// 0 if it imposes none (K = ∞). The machine statically applies the
	// paper's dummy-thread transformation to allocations larger than K.
	MemThreshold() int64

	// StealRound runs at the start of each timestep with the processors
	// that have no current thread. For each processor it may assign a
	// thread by calling m.Assign(p, t); processors left unassigned have
	// spent the timestep on a failed steal attempt.
	StealRound(idle []int)

	// OnFork: processor p, running parent, executed a fork of child.
	OnFork(p int, parent, child *Thread) *Thread

	// OnSuspend: p's thread stopped running at a join on a live child or
	// on a held lock; the machine has already recorded it as a waiter.
	// It returns p's next thread (nil: p goes idle) — policy.Next's twin.
	OnSuspend(p int) *Thread

	// OnTerminate: p's thread t terminated. If t's termination woke t's
	// suspended parent, woke is that parent (now runnable), else nil.
	OnTerminate(p int, t *Thread, woke *Thread) *Thread

	// OnWake: thread t became runnable because processor p released the
	// lock t was waiting on. The scheduler must store t; p keeps running
	// its current thread.
	OnWake(p int, t *Thread)

	// ChargeAlloc: p's thread t is about to allocate n bytes. Returns true
	// if the allocation fits the processor's remaining memory quota (which
	// it deducts), false to veto: the machine then preempts t via
	// OnPreempt. Schedulers without quotas always return true.
	ChargeAlloc(p int, t *Thread, n int64) bool

	// CreditFree: p's thread t freed n bytes; quota schedulers may credit
	// the quota (the paper's K bounds *net* allocation between steals).
	CreditFree(p int, t *Thread, n int64)

	// OnPreempt: t was preempted because ChargeAlloc vetoed its
	// allocation. The scheduler must store t; the processor goes idle.
	OnPreempt(p int, t *Thread)

	// OnDummy: p executed a dummy thread's no-op action. Quota schedulers
	// must force p to give up its deque and steal once the dummy
	// terminates (the termination follows immediately; the scheduler
	// typically zeroes p's quota or sets a flag consulted in OnTerminate).
	OnDummy(p int)

	// CheckInvariants verifies scheduler-internal invariants (for DFDeques,
	// Lemma 3.1). Called after every timestep when Config.CheckInvariants
	// is set, which Run allows only for programs without locks (outside
	// the nested-parallel model the lemma covers); return nil when there
	// is nothing to check.
	CheckInvariants() error
}
