// Package dag models pure, nested-parallel multithreaded computations —
// the series-parallel dags of Narlikar's SPAA '99 paper (§2, §3.1).
//
// A computation is a tree of ThreadSpecs. Each ThreadSpec is a straight-
// line list of instructions; forks are binary (OpFork names a single child
// spec) and joins are properly nested (OpJoin joins the most recently
// forked, not-yet-joined child), which makes every program expressible
// here a series-parallel dag, exactly the class the paper's schedulers and
// bounds apply to.
//
// The same ThreadSpec tree is interpreted by two engines: the machine
// simulator (internal/machine) under the paper's §4.1 cost model, and the
// real goroutine runtime (internal/grt) as actual fork/join concurrency.
package dag

// BlockID identifies a region of shared data touched by a computation, for
// the cache-locality model. Block 0 means "touches nothing".
type BlockID int32

// LockID identifies a lock object, for the Fig. 17 blocking-synchronization
// experiments. Locks are outside the nested-parallel model; programs using
// them lose the paper's analytical space bound but still run (§3.1).
type LockID int32

// Op enumerates instruction kinds.
type Op uint8

const (
	// OpWork performs N unit actions of compute, touching TouchBytes bytes
	// of block Blk (for the cache model).
	OpWork Op = iota
	// OpAlloc allocates N bytes of heap. Under a quota scheduler, an
	// allocation larger than the memory threshold K triggers the paper's
	// dummy-thread transformation (§3.3).
	OpAlloc
	// OpFree frees N bytes of heap.
	OpFree
	// OpFork forks the Child thread. The child preempts the parent: the
	// forking processor pushes the parent on its deque and runs the child
	// (depth-first order).
	OpFork
	// OpJoin joins the most recently forked, not-yet-joined child. If the
	// child has not terminated the thread suspends; the child's
	// termination wakes it.
	OpJoin
	// OpAcquire acquires lock Lock, suspending (or spinning, per the
	// machine's lock mode) if it is held.
	OpAcquire
	// OpRelease releases lock Lock.
	OpRelease
	// OpDummy is a one-action no-op executed by the dummy threads that the
	// large-allocation transformation (§3.3) inserts before allocations
	// bigger than the memory threshold K. A processor executing one is
	// treated as if it had allocated K bytes: it must give up its deque
	// and steal afterwards. Programs do not emit OpDummy directly.
	OpDummy
)

func (o Op) String() string {
	switch o {
	case OpWork:
		return "work"
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	case OpFork:
		return "fork"
	case OpJoin:
		return "join"
	case OpAcquire:
		return "acquire"
	case OpRelease:
		return "release"
	case OpDummy:
		return "dummy"
	}
	return "op?"
}

// Instr is one instruction of a thread.
type Instr struct {
	Op         Op
	N          int64       // OpWork: unit actions; OpAlloc/OpFree: bytes
	Blk        BlockID     // OpWork: block touched
	TouchBytes int32       // OpWork: bytes of Blk touched per execution
	Child      *ThreadSpec // OpFork: the forked thread
	Lock       LockID      // OpAcquire/OpRelease

	// Exempt marks an OpAlloc that has been pre-paid by a dummy-thread
	// tree: the quota check is skipped (the delay already happened).
	Exempt bool
	// DummyFork marks an OpFork whose child is a dummy leaf thread.
	DummyFork bool
}

// ThreadSpec is the program of a single thread: a straight-line
// instruction list. Specs are immutable once built and may be shared
// between multiple OpFork sites (the engines never mutate them).
type ThreadSpec struct {
	Instrs []Instr

	// Label is an optional human-readable tag for traces.
	Label string
}
