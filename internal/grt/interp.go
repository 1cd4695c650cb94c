package grt

import (
	"fmt"
	"sync"

	"dfdeques/internal/dag"
)

// RunSpec interprets a declarative dag.ThreadSpec program on the real
// runtime: forks become real thread forks, allocations drive the memory
// quota, lock instructions use scheduler-mediated Mutexes, and OpWork
// burns real CPU. This is the bridge that lets one workload definition run
// on both engines — the simulator measures it under the §4.1 cost model,
// and this interpreter executes it as genuine concurrency (integration
// tests cross-check the two).
//
// WorkScale sets the spin iterations per unit action (0 = 8).
func RunSpec(cfg Config, spec *dag.ThreadSpec, workScale int) (Stats, error) {
	root, err := SpecBody(spec, workScale)
	if err != nil {
		return Stats{}, err
	}
	return Run(cfg, root)
}

// SpecBody validates a declarative program and returns it as a root
// thread body, so callers that need lifecycle control (Submit with a
// deadline, several specs on one warm runtime) can feed specs through the
// persistent API instead of the one-shot RunSpec. The body is one run's
// program: its lock instructions share Mutexes with no other body's. The
// validation and the thread bodies of every distinct sub-program are done
// here, once, so running the body validates nothing and a fork allocates
// nothing.
func SpecBody(spec *dag.ThreadSpec, workScale int) (func(*T), error) {
	if err := dag.Validate(spec); err != nil {
		return nil, err
	}
	if workScale <= 0 {
		workScale = 8
	}
	in := &interp{scale: workScale, bodies: make(map[*dag.ThreadSpec]func(*T))}
	return in.body(spec), nil
}

type interp struct {
	scale int
	mu    sync.Mutex
	locks map[dag.LockID]*Mutex // made at the first lock instruction

	// bodies holds the thread body of each distinct (sub-)program, built
	// by SpecBody and only read afterwards.
	bodies map[*dag.ThreadSpec]func(*T)

	sink uint64 // keeps the work loops' result live without ever being stored to (spin)
}

// body returns spec's thread body, building it and its forks' bodies on
// first sight; shared subtrees (a fork tree reuses one spec per level)
// get one body each.
func (in *interp) body(spec *dag.ThreadSpec) func(*T) {
	if b, ok := in.bodies[spec]; ok {
		return b
	}
	b := func(t *T) { in.thread(t, spec) }
	in.bodies[spec] = b
	for _, instr := range spec.Instrs {
		if instr.Op == dag.OpFork {
			in.body(instr.Child)
		}
	}
	return b
}

func (in *interp) lock(id dag.LockID) *Mutex {
	in.mu.Lock()
	defer in.mu.Unlock()
	m, ok := in.locks[id]
	if !ok {
		if in.locks == nil {
			in.locks = make(map[dag.LockID]*Mutex)
		}
		m = &Mutex{}
		in.locks[id] = m
	}
	return m
}

func (in *interp) thread(t *T, spec *dag.ThreadSpec) {
	var few [4]*T // on the stack: most threads have few forks outstanding
	joinStack := few[:0]
	for _, instr := range spec.Instrs {
		switch instr.Op {
		case dag.OpWork:
			if instr.Blk != 0 && instr.TouchBytes > 0 {
				t.Touch(int32(instr.Blk), int64(instr.TouchBytes))
			}
			in.spin(instr.N)
		case dag.OpAlloc:
			t.Alloc(instr.N)
		case dag.OpFree:
			t.Free(instr.N)
		case dag.OpFork:
			h := t.Fork(in.bodies[instr.Child])
			joinStack = append(joinStack, h)
		case dag.OpJoin:
			h := joinStack[len(joinStack)-1]
			joinStack = joinStack[:len(joinStack)-1]
			t.Join(h)
		case dag.OpAcquire:
			in.lock(instr.Lock).Lock(t)
		case dag.OpRelease:
			in.lock(instr.Lock).Unlock(t)
		case dag.OpDummy:
			// Programs do not contain OpDummy (the runtime transformation
			// inserts dummies itself via Alloc); tolerate it as a no-op.
		default:
			panic(fmt.Sprintf("grt: unknown op %v", instr.Op))
		}
	}
}

// spin performs n units of real work.
func (in *interp) spin(n int64) {
	var acc uint64 = 0x9E3779B97F4A7C15
	iters := n * int64(in.scale)
	for i := int64(0); i < iters; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
	}
	// The loop must not be dead code, and its result must go nowhere shared:
	// every leaf of every job ends here. A xorshift state that starts
	// non-zero never becomes zero, which the compiler cannot know.
	if acc == 0 {
		in.sink = acc
	}
}
