package policy_test

// Inject places a thread into a policy's ready structure from outside any
// worker — the path a submitted job root or a canceled job's republished
// thread takes (PR 4). These tests pin down the placement contract per
// policy: appended at the right end of R for DFD (where a root minted at
// the back of the order belongs; WS is DFD with K = ∞), priority-positioned
// for ADF, arrival-ordered for FIFO.

import (
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/policy"
)

// TestDFDInjectPriorityOrder pins the contract the runtime relies on:
// roots are minted at the back of the priority order and injected in that
// order, each Inject appends a fresh deque at the right end of R, so R
// stays Lemma 3.1-ordered with no comparison and a single worker acquires
// the roots in 1DF priority order.
func TestDFDInjectPriorityOrder(t *testing.T) {
	l := policy.Prios{Order: dag.ParentFirst}
	// One worker: the leftmost-p steal window has width 1, so the victim
	// choice is deterministic and the acquire order is exactly R's order.
	injecting := false
	d := policy.NewDFD(1, 0, func(a, b *policy.PrioNode) bool {
		if injecting {
			t.Error("Inject reached the priority order")
		}
		return l.Less(a, b)
	}, 1)

	var roots []*policy.PrioNode
	injecting = true
	for i := 0; i < 3; i++ {
		r := l.Root() // grt.Submit: each root lower than everything minted before
		roots = append(roots, r)
		d.Inject(r)
	}
	injecting = false

	idle := func(int) (*policy.PrioNode, bool) { return nil, false }
	if err := d.CheckInvariants(idle); err != nil {
		t.Fatalf("after injection: %v", err)
	}

	for i, want := range roots {
		got, ok := d.Acquire(0)
		if !ok {
			t.Fatalf("acquire %d failed with %d roots outstanding", i, 3-i)
		}
		if got != want {
			t.Fatalf("acquire %d: roots came back out of injection order", i)
		}
		if _, ok := d.Terminate(0, nil, false); ok {
			t.Fatalf("acquire %d: unexpected local work after a lone injected root", i)
		}
	}
	if d.HasWork() {
		t.Error("pool reports work after all injected roots terminated")
	}
}

// TestDFDInjectMidRun injects a low-priority root while a worker is mid
// computation with a non-empty deque, then checks the worker's own work
// still runs first and the injected root is acquired last — the Lemma 3.1
// ordering the Inject doc comment promises for mid-run injection.
func TestDFDInjectMidRun(t *testing.T) {
	l := policy.Prios{Order: dag.ParentFirst}
	d := policy.NewDFD(1, 0, l.Less, 1)

	root := l.Root()
	d.Seed(root)
	curr, ok := d.Acquire(0)
	if !ok || curr != root {
		t.Fatal("worker could not acquire the seeded root")
	}

	// Fork: the root keeps running and the child — its 1DF successor —
	// goes on the worker's deque.
	child := l.Fork(curr)
	d.ForkCont(0, curr, child)

	// A job arrives mid-run: its root comes after every earlier root and
	// its descendants (lower than everything live, the runtime's submit
	// rule).
	late := l.Root()
	d.Inject(late)

	running := func(int) (*policy.PrioNode, bool) { return curr, curr != nil }
	if err := d.CheckInvariants(running); err != nil {
		t.Fatalf("after mid-run injection: %v", err)
	}

	// The worker drains its own deque (root, then child) before the
	// injected root is reachable.
	for _, want := range []*policy.PrioNode{child, late} {
		next, ok := d.Terminate(0, nil, false)
		if !ok {
			next, ok = d.Acquire(0)
		}
		if !ok {
			t.Fatal("ready thread unreachable after terminate+acquire")
		}
		if next != want {
			t.Fatal("injected root ran before higher-priority local work")
		}
		curr = next
	}
	if _, ok := d.Terminate(0, nil, false); ok {
		t.Error("work left after the injected root terminated")
	}
}

// TestADFInjectPriorityOrder: ADF's Inject is the same priority-positioned
// insert as every other publish, so scrambled injection order must come
// back out of the shared queue in 1DF priority order.
func TestADFInjectPriorityOrder(t *testing.T) {
	l := policy.Prios{Order: dag.ParentFirst}
	a := policy.NewADF(2, 0, l.Less)

	r1 := l.Root()
	r2 := l.Root()
	r3 := l.Root()

	a.Inject(r2)
	a.Inject(r3)
	a.Inject(r1)
	if !a.HasWork() {
		t.Fatal("no work after injecting three roots")
	}

	for i, want := range []*policy.PrioNode{r1, r2, r3} {
		got, ok := a.Acquire(i % 2) // either worker sees the same global order
		if !ok || got != want {
			t.Fatalf("acquire %d: wrong record or empty queue (ok=%v)", i, ok)
		}
	}
	if a.HasWork() {
		t.Error("queue reports work after draining")
	}
	if st := a.Stats(); st.Steals != 3 {
		t.Errorf("steals = %d, want 3 (every ADF dispatch is a queue take)", st.Steals)
	}
}

// TestFIFOInjectArrivalOrder: FIFO deliberately has no priority order —
// injected roots join the tail and come back in arrival order, like any
// forked thread.
func TestFIFOInjectArrivalOrder(t *testing.T) {
	f := policy.NewFIFO[int]()
	for _, v := range []int{20, 30, 10} {
		f.Inject(v)
	}
	for i, want := range []int{20, 30, 10} {
		got, ok := f.Acquire(0)
		if !ok || got != want {
			t.Fatalf("acquire %d = (%d, %v), want %d (arrival order)", i, got, ok, want)
		}
	}
	if f.HasWork() {
		t.Error("queue reports work after draining")
	}
}

// TestDFDInjectAdmissionOrder pins the contract the serving layer's
// weighted-fair admission relies on: roots injected one at a time in
// admission order (each a fresh root, after everything minted before it:
// the grt.Submit path) are acquired in exactly that order. A weighted-fair
// dispatcher therefore controls execution priority among job roots
// purely by choosing its Inject order — here a 2:1 interleave of tenants
// A and B survives into the acquire order.
func TestDFDInjectAdmissionOrder(t *testing.T) {
	l := policy.Prios{Order: dag.ParentFirst}
	d := policy.NewDFD(1, 0, l.Less, 1)

	// Admission order out of a weight-2:1 fair queue: A A B A A B.
	admitted := []string{"A", "A", "B", "A", "A", "B"}
	byRec := make(map[*policy.PrioNode]string, len(admitted))
	for _, tenant := range admitted {
		r := l.Root() // grt.Submit: new root at back-of-priority
		byRec[r] = tenant
		d.Inject(r)
	}

	var got []string
	for range admitted {
		r, ok := d.Acquire(0)
		if !ok {
			t.Fatalf("acquire failed with roots outstanding (got %v)", got)
		}
		got = append(got, byRec[r])
		if _, ok := d.Terminate(0, nil, false); ok {
			t.Fatal("unexpected local work after a lone injected root")
		}
	}
	for i, want := range admitted {
		if got[i] != want {
			t.Fatalf("acquire order %v does not preserve admission order %v", got, admitted)
		}
	}
}
