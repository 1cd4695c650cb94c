package dag

// SerialMetrics are the intrinsic measures of a nested-parallel
// computation, obtained by a serial execution that runs each forked child
// as a plain function call (§3.1): total work W, depth D (critical-path
// length), the serial heap high-water mark S1, and thread counts. These
// are the quantities the paper's bounds are stated in. W, D, TotalAlloc,
// TotalThreads, HeapEnd and Nesting are properties of the dag; HeapHW and
// MaxLiveSerial depend on the Order the serial execution runs a fork in.
type SerialMetrics struct {
	W int64 // work: total unit actions in the dag
	D int64 // depth: longest path, in actions

	HeapHW     int64 // S1: high-water mark of net heap allocation in the serial execution
	HeapEnd    int64 // net heap allocation remaining at the end (0 for balanced programs)
	TotalAlloc int64 // SA: sum of all allocation sizes, ignoring frees

	TotalThreads  int64 // dynamic thread instances (forks + 1)
	MaxLiveSerial int64 // max simultaneously live threads during the serial execution
	Nesting       int64 // fork-nesting depth: the longest chain of threads each forked by the last
}

// Order is the branch of a fork that a serial execution runs first.
type Order uint8

const (
	// ChildFirst runs the forked child to completion at the fork, then
	// the parent's continuation: the paper's 1DF execution, which the
	// simulator and every figure measure against.
	ChildFirst Order = iota
	// ParentFirst keeps running the parent and runs the child when the
	// parent's LIFO join reaches it: the live runtime's order on one
	// worker (internal/grt's work-first fork and inline join).
	ParentFirst
)

// Measure returns the metrics of the 1DF (ChildFirst) execution.
func Measure(root *ThreadSpec) SerialMetrics {
	return Walk(root, ChildFirst)
}

// Walk runs the serial execution of the spec tree in the given order and
// returns its metrics. A shared sub-spec is walked once and counted once
// per dynamic fork of it, as the engines execute it.
func Walk(root *ThreadSpec, o Order) SerialMetrics {
	w := walker{order: o, memo: map[*ThreadSpec]SerialMetrics{}}
	return w.spec(root)
}

type walker struct {
	order Order
	memo  map[*ThreadSpec]SerialMetrics
}

// pendingFork is a forked, not yet joined child: its metrics and the depth
// of its last action.
type pendingFork struct {
	m   SerialMetrics
	end int64
}

// spec returns the metrics of s run as a root: its first action at depth
// 1, the heap and the live-thread count relative to their values when it
// starts (so HeapHW ≥ 0 even if s only frees). A thread's metrics are
// composed from its children's, so each distinct spec is walked once.
func (w *walker) spec(s *ThreadSpec) SerialMetrics {
	if m, ok := w.memo[s]; ok {
		return m
	}
	m := SerialMetrics{TotalThreads: 1, MaxLiveSerial: 1}
	live := int64(1) // s and its forked children not yet finished
	// run executes a child at the current point of s.
	run := func(c SerialMetrics) {
		m.HeapHW = max(m.HeapHW, m.HeapEnd+c.HeapHW)
		m.HeapEnd += c.HeapEnd
		m.MaxLiveSerial = max(m.MaxLiveSerial, live+c.MaxLiveSerial)
	}
	var few [4]pendingFork
	pending := few[:0]
	for _, in := range s.Instrs {
		switch in.Op {
		case OpWork:
			m.D += in.N
			m.W += in.N
			continue
		case OpAlloc:
			m.HeapEnd += in.N
			m.TotalAlloc += in.N
			m.HeapHW = max(m.HeapHW, m.HeapEnd)
		case OpFree:
			m.HeapEnd -= in.N
		case OpFork:
			c := w.spec(in.Child)
			m.W += c.W
			m.TotalAlloc += c.TotalAlloc
			m.TotalThreads += c.TotalThreads
			m.Nesting = max(m.Nesting, 1+c.Nesting)
			// The child's first action follows the fork action.
			pending = append(pending, pendingFork{c, m.D + 1 + c.D})
			if w.order == ChildFirst {
				run(c)
			} else {
				live++
				m.MaxLiveSerial = max(m.MaxLiveSerial, live)
			}
		case OpJoin:
			p := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			m.D = max(m.D, p.end)
			if w.order == ParentFirst {
				live--
				run(p.m)
			}
		}
		// Every instruction but OpWork is one action.
		m.D++
		m.W++
	}
	w.memo[s] = m
	return m
}
