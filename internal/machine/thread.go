package machine

import "dfdeques/internal/dag"

// State is the lifecycle state of a simulated thread (§3.1: a thread is
// active from creation to termination; an active thread is ready when it
// is neither suspended nor executing).
type State uint8

const (
	// Created: freshly built, not yet handed to the scheduler. The zero
	// value is deliberately distinct from Ready so that state-count
	// bookkeeping sees the first Ready transition.
	Created State = iota
	// Ready: runnable, stored in some scheduler structure.
	Ready
	// Running: currently executing on a processor.
	Running
	// SuspendedJoin: waiting at an OpJoin for a live child.
	SuspendedJoin
	// BlockedLock: waiting in an OpAcquire queue.
	BlockedLock
	// Dead: terminated.
	Dead
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case SuspendedJoin:
		return "suspended"
	case BlockedLock:
		return "blocked"
	case Dead:
		return "dead"
	}
	return "state?"
}

// Thread is a dynamic thread instance executing a dag.ThreadSpec.
type Thread struct {
	ID   int64
	Spec *dag.ThreadSpec
	PC   int // index of the next instruction

	// workLeft counts the remaining unit actions of the current OpWork
	// instruction; 0 means the instruction at PC has not started.
	workLeft int64

	// Parent (the forker), depth and index (among the forker's forks) place
	// the thread in the fork tree HigherPriority reads; the root's are nil,
	// 0, 0. forks counts the thread's own forks.
	Parent       *Thread
	depth        int
	index, forks int64
	// unjoined is the LIFO stack of forked, not-yet-joined children.
	unjoined []*Thread
	// Waiter is the parent suspended at a join on this thread, if any.
	Waiter *Thread

	State State

	// Dummy marks the no-op threads inserted by the large-allocation
	// transformation (§3.3): after executing one, the processor must give
	// up its deque and steal.
	Dummy bool
}

// Instr returns the instruction at the thread's PC.
func (t *Thread) Instr() dag.Instr { return t.Spec.Instrs[t.PC] }

// AtEnd reports whether the thread has executed all its instructions.
func (t *Thread) AtEnd() bool { return t.PC >= len(t.Spec.Instrs) }

// HigherPriority reports whether t precedes u in the 1DF order: a forked
// child comes before its parent's continuation (dag.ChildFirst).
func (t *Thread) HigherPriority(u *Thread) bool {
	return dag.Before(t, u, (*Thread).pos, dag.ChildFirst)
}

func (t *Thread) pos() (*Thread, int, int64) { return t.Parent, t.depth, t.index }
