package machine_test

import (
	"math/rand"
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
)

// randomSpec builds a deterministic pseudo-random nested-parallel program.
func randomSpec(rng *rand.Rand, depth int) *dag.ThreadSpec {
	b := dag.NewThread("r")
	b.Work(int64(rng.Intn(3) + 1))
	if depth > 0 {
		n := rng.Intn(3) + 1
		for i := 0; i < n; i++ {
			child := randomSpec(rng, depth-1)
			if rng.Intn(3) == 0 {
				b.ForkJoin(child)
			} else {
				b.Fork(child).Work(int64(rng.Intn(3) + 1)).Join()
			}
		}
	}
	if rng.Intn(2) == 0 {
		sz := int64(rng.Intn(100))
		b.Alloc(sz).Free(sz)
	}
	return b.Spec()
}

// completionOrder returns the sequence of thread terminations in the 1DF
// execution, with threads identified by their creation index (1 = root,
// in creation order). Schedulers that claim depth-first semantics on one
// processor must terminate threads in exactly this order.
func completionOrder(root *dag.ThreadSpec) []int64 {
	var nextID int64
	var completions []int64
	var thread func(s *dag.ThreadSpec)
	thread = func(s *dag.ThreadSpec) {
		nextID++
		id := nextID
		for _, in := range s.Instrs {
			if in.Op == dag.OpFork {
				thread(in.Child)
			}
		}
		completions = append(completions, id)
	}
	thread(root)
	return completions
}

// TestSingleProc1DFOrderConformance: on one processor, the depth-first
// schedulers (DFD with any K large enough to avoid preemption, WS, ADF)
// must terminate threads in exactly the serial 1DF completion order —
// i.e. they really implement the depth-first execution the analysis
// assumes (§3.1).
func TestSingleProc1DFOrderConformance(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		spec := randomSpec(rng, 4)
		want := completionOrder(spec)

		for _, name := range []string{"DFD", "DFD-inf", "ADF"} {
			var got []int64
			cfg := machine.Config{
				Procs:     1,
				Seed:      int64(trial),
				Scheduler: name,
				K:         1 << 30,
				Observer: func(step int64, proc int, kind string, threadID int64) {
					if kind == "terminate" {
						got = append(got, threadID)
					}
				},
			}
			if _, err := machine.New(cfg).Run(spec); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d terminations, want %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: termination %d = thread %d, want %d (1DF order violated)",
						trial, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFIFOSingleProcIsNot1DF: the FIFO scheduler is breadth-first; on
// non-trivial programs its single-processor termination order must
// differ from the 1DF order (otherwise the comparison above would be
// vacuous).
func TestFIFOSingleProcIsNot1DF(t *testing.T) {
	// root forks A (which forks A1) and B. Depth-first: A1, A, B, root.
	// FIFO: B runs before A's child A1 even exists, so the termination
	// sequences must differ.
	a1 := dag.NewThread("A1").Work(2).Spec()
	a := dag.NewThread("A").Work(1).Fork(a1).Join().Spec()
	bt := dag.NewThread("B").Work(1).Spec()
	spec := dag.NewThread("root").Fork(a).Fork(bt).Join().Join().Spec()
	want := completionOrder(spec)
	var got []int64
	cfg := machine.Config{
		Procs:     1,
		Seed:      1,
		Scheduler: "FIFO",
		Observer: func(step int64, proc int, kind string, threadID int64) {
			if kind == "terminate" {
				got = append(got, threadID)
			}
		},
	}
	m := machine.New(cfg)
	if _, err := m.Run(spec); err != nil {
		t.Fatal(err)
	}
	same := len(got) == len(want)
	if same {
		for i := range want {
			if got[i] != want[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("FIFO produced the 1DF order — breadth-first scheduling is broken")
	}
}

// TestObserverSeesForkPerThread: every thread except the root must appear
// in exactly one fork event, and every thread in exactly one terminate
// event — the schedule is complete and consistent.
func TestObserverSeesForkPerThread(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec := randomSpec(rng, 4)
	want := dag.Measure(spec)
	terms := map[int64]int{}
	var forkEvents int64
	cfg := machine.Config{
		Procs:     4,
		Seed:      3,
		Scheduler: "DFD",
		K:         1 << 30,
		Observer: func(step int64, proc int, kind string, threadID int64) {
			switch kind {
			case "terminate":
				terms[threadID]++
			case "fork":
				forkEvents++
			}
		},
	}
	m := machine.New(cfg)
	if _, err := m.Run(spec); err != nil {
		t.Fatal(err)
	}
	if int64(len(terms)) != want.TotalThreads {
		t.Errorf("distinct terminated threads = %d, want %d", len(terms), want.TotalThreads)
	}
	for id, n := range terms {
		if n != 1 {
			t.Errorf("thread %d terminated %d times", id, n)
		}
	}
	if forkEvents != want.TotalThreads-1 {
		t.Errorf("fork events = %d, want %d", forkEvents, want.TotalThreads-1)
	}
}

// TestParallelTerminationsRespectHierarchy: on any processor count, a
// parent thread must terminate after all threads it forked (nested
// parallelism). Reconstruct the fork tree from creation IDs via a second
// serial walk and check order.
func TestParallelTerminationsRespectHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	spec := randomSpec(rng, 4)

	// Creation-ordered parent map from a serial walk mirroring machine
	// creation order is nontrivial for p > 1 (creation interleaves), so
	// use the simplest sound property: the root (ID 1) terminates last.
	for _, procs := range []int{2, 4, 8} {
		var last int64
		cfg := machine.Config{
			Procs:     procs,
			Seed:      int64(procs),
			Scheduler: "DFD",
			K:         2000,
			Observer: func(step int64, proc int, kind string, threadID int64) {
				if kind == "terminate" {
					last = threadID
				}
			},
		}
		m := machine.New(cfg)
		if _, err := m.Run(spec); err != nil {
			t.Fatal(err)
		}
		if last != 1 {
			t.Errorf("p=%d: last terminated thread = %d, want root (1)", procs, last)
		}
	}
}
