package dag

import "fmt"

// B incrementally builds one thread's instruction list. Obtain one from
// NewThread, chain instruction methods, and call Spec to finalize. Spec
// validates the nested-parallel discipline: every fork is joined by its
// forking thread, joins are properly nested (LIFO), and no join appears
// without a pending fork.
type B struct {
	instrs   []Instr
	label    string
	pending  int // forked, not yet joined children
	finished bool
}

// NewThread starts building a thread with an optional label.
func NewThread(label string) *B {
	return &B{label: label}
}

// Work appends n unit actions of compute touching no data.
func (b *B) Work(n int64) *B {
	return b.WorkOn(n, 0, 0)
}

// WorkOn appends n unit actions of compute that touch touchBytes bytes of
// block blk each time the instruction runs.
func (b *B) WorkOn(n int64, blk BlockID, touchBytes int32) *B {
	if n <= 0 {
		return b
	}
	b.instrs = append(b.instrs, Instr{Op: OpWork, N: n, Blk: blk, TouchBytes: touchBytes})
	return b
}

// Alloc appends a heap allocation of n bytes.
func (b *B) Alloc(n int64) *B {
	if n < 0 {
		panic(fmt.Sprintf("dag: Alloc(%d): negative size", n))
	}
	b.instrs = append(b.instrs, Instr{Op: OpAlloc, N: n})
	return b
}

// Free appends a heap free of n bytes.
func (b *B) Free(n int64) *B {
	if n < 0 {
		panic(fmt.Sprintf("dag: Free(%d): negative size", n))
	}
	b.instrs = append(b.instrs, Instr{Op: OpFree, N: n})
	return b
}

// Fork appends a binary fork of the child spec.
func (b *B) Fork(child *ThreadSpec) *B {
	if child == nil {
		panic("dag: Fork(nil)")
	}
	b.instrs = append(b.instrs, Instr{Op: OpFork, Child: child})
	b.pending++
	return b
}

// Join appends a join with the most recently forked, not-yet-joined child.
func (b *B) Join() *B {
	if b.pending == 0 {
		panic("dag: Join without a pending Fork")
	}
	b.pending--
	b.instrs = append(b.instrs, Instr{Op: OpJoin})
	return b
}

// ForkJoin forks the child and immediately joins it (serial composition
// through the scheduler — the paper's threads often degenerate to this
// near the leaves when granularity is coarsened).
func (b *B) ForkJoin(child *ThreadSpec) *B {
	return b.Fork(child).Join()
}

// Acquire appends a blocking lock acquisition.
func (b *B) Acquire(l LockID) *B {
	b.instrs = append(b.instrs, Instr{Op: OpAcquire, Lock: l})
	return b
}

// Release appends a lock release.
func (b *B) Release(l LockID) *B {
	b.instrs = append(b.instrs, Instr{Op: OpRelease, Lock: l})
	return b
}

// Spec validates and finalizes the thread. It panics if forks remain
// unjoined: nested-parallel threads must join every child they fork.
func (b *B) Spec() *ThreadSpec {
	if b.finished {
		panic("dag: Spec called twice")
	}
	if b.pending != 0 {
		panic(fmt.Sprintf("dag: thread %q has %d unjoined forks", b.label, b.pending))
	}
	b.finished = true
	return &ThreadSpec{Instrs: b.instrs, Label: b.label}
}

// Par2 builds a thread that runs the two child specs in parallel: it forks
// both, then joins both. This is the canonical binary-fork building block
// of the paper's programs, and a served tree job builds one per level, so
// it allocates the four instructions at once instead of through B.
func Par2(label string, left, right *ThreadSpec) *ThreadSpec {
	if left == nil || right == nil {
		panic("dag: Fork(nil)")
	}
	return &ThreadSpec{Label: label, Instrs: []Instr{
		{Op: OpFork, Child: left}, {Op: OpFork, Child: right}, {Op: OpJoin}, {Op: OpJoin},
	}}
}

// ParFor builds a balanced binary fork tree over n leaves, calling leaf(i)
// to obtain the i-th leaf thread. Interior threads perform one unit of
// work before forking (the fork node itself). This mirrors how the paper's
// benchmarks express parallel loops as binary fork trees (§5.1).
func ParFor(label string, n int, leaf func(i int) *ThreadSpec) *ThreadSpec {
	if n <= 0 {
		panic("dag: ParFor over empty range")
	}
	return parForRange(label, 0, n, leaf)
}

func parForRange(label string, lo, hi int, leaf func(i int) *ThreadSpec) *ThreadSpec {
	if hi-lo == 1 {
		return leaf(lo)
	}
	mid := lo + (hi-lo)/2
	left := parForRange(label, lo, mid, leaf)
	right := parForRange(label, mid, hi, leaf)
	return Par2(label, left, right)
}

// SerialFor builds a thread that runs the n leaves one after another by
// fork-join pairs (the "serialize the recursion near the leaves"
// coarsening of §5.1, expressed through the scheduler), prefixed by no
// work. Used to build medium-grained variants of workloads.
func SerialFor(label string, n int, leaf func(i int) *ThreadSpec) *ThreadSpec {
	if n <= 0 {
		panic("dag: SerialFor over empty range")
	}
	b := NewThread(label)
	for i := 0; i < n; i++ {
		b.ForkJoin(leaf(i))
	}
	return b.Spec()
}

// Validate walks the spec tree and reports structural violations that the
// builder cannot catch when specs are assembled by hand: nil children,
// joins without forks, unjoined forks, and frees a thread does not cover.
// The heap rule is the nested-parallel discipline: a thread frees at most
// what it has allocated, plus what its joined children left live.
func Validate(spec *ThreadSpec) error {
	_, err := validate(spec, map[*ThreadSpec]int64{})
	return err
}

// validate checks spec and returns the bytes it leaves live, memoized in
// net per shared sub-spec.
func validate(spec *ThreadSpec, net map[*ThreadSpec]int64) (int64, error) {
	if spec == nil {
		return 0, fmt.Errorf("dag: nil ThreadSpec")
	}
	if n, ok := net[spec]; ok {
		return n, nil // shared subtree already validated
	}
	net[spec] = 0
	var live int64
	var few [4]int64
	pending := few[:0] // forked, not yet joined children's net bytes
	for i, in := range spec.Instrs {
		switch in.Op {
		case OpFork:
			if in.Child == nil {
				return 0, fmt.Errorf("dag: thread %q instr %d: fork with nil child", spec.Label, i)
			}
			n, err := validate(in.Child, net)
			if err != nil {
				return 0, err
			}
			pending = append(pending, n)
		case OpJoin:
			if len(pending) == 0 {
				return 0, fmt.Errorf("dag: thread %q instr %d: join without pending fork", spec.Label, i)
			}
			live += pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		case OpWork:
			if in.N <= 0 {
				return 0, fmt.Errorf("dag: thread %q instr %d: work with N=%d", spec.Label, i, in.N)
			}
		case OpAlloc, OpFree:
			if in.N < 0 {
				return 0, fmt.Errorf("dag: thread %q instr %d: %v with negative bytes", spec.Label, i, in.Op)
			}
			if in.Op == OpAlloc {
				live += in.N
			} else if live -= in.N; live < 0 {
				return 0, fmt.Errorf("dag: thread %q instr %d: free of %d bytes with %d covered", spec.Label, i, in.N, live+in.N)
			}
		}
	}
	if len(pending) != 0 {
		return 0, fmt.Errorf("dag: thread %q leaves %d forks unjoined", spec.Label, len(pending))
	}
	net[spec] = live
	return live, nil
}
