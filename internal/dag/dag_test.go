package dag

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	child := NewThread("child").Work(5).Spec()
	root := NewThread("root").Work(1).Fork(child).Work(2).Join().Spec()
	if err := Validate(root); err != nil {
		t.Fatal(err)
	}
	if len(root.Instrs) != 4 {
		t.Fatalf("instrs = %d, want 4", len(root.Instrs))
	}
}

func TestBuilderPanics(t *testing.T) {
	mustPanic(t, func() { NewThread("x").Join() })
	mustPanic(t, func() { NewThread("x").Fork(nil) })
	mustPanic(t, func() { NewThread("x").Alloc(-1) })
	mustPanic(t, func() { NewThread("x").Free(-1) })
	mustPanic(t, func() {
		c := NewThread("c").Spec()
		NewThread("x").Fork(c).Spec() // unjoined fork
	})
	mustPanic(t, func() {
		b := NewThread("x")
		b.Spec()
		b.Spec() // double finalize
	})
}

func TestWorkZeroIsSkipped(t *testing.T) {
	s := NewThread("x").Work(0).Work(3).Spec()
	if len(s.Instrs) != 1 {
		t.Fatalf("Work(0) should be dropped; instrs = %d", len(s.Instrs))
	}
}

func TestValidateCatchesHandAssembledErrors(t *testing.T) {
	bad := &ThreadSpec{Instrs: []Instr{{Op: OpJoin}}}
	if Validate(bad) == nil {
		t.Fatal("join without fork not caught")
	}
	bad2 := &ThreadSpec{Instrs: []Instr{{Op: OpFork, Child: nil}}}
	if Validate(bad2) == nil {
		t.Fatal("nil child not caught")
	}
	bad3 := &ThreadSpec{Instrs: []Instr{{Op: OpWork, N: 0}}}
	if Validate(bad3) == nil {
		t.Fatal("zero work not caught")
	}
	bad4 := &ThreadSpec{Instrs: []Instr{{Op: OpFork, Child: &ThreadSpec{}}}}
	if Validate(bad4) == nil {
		t.Fatal("unjoined fork not caught")
	}
}

// TestValidateRefusesUncoveredFrees: a thread frees at most what it has
// allocated plus what its joined children left live — not its parent's
// bytes, not a child's before the join — and a shared sub-spec covers its
// net bytes once per fork.
func TestValidateRefusesUncoveredFrees(t *testing.T) {
	leak := NewThread("leak").Alloc(100).Spec()
	ok := map[string]*ThreadSpec{
		"own bytes":            NewThread("x").Alloc(100).Free(60).Free(40).Spec(),
		"a joined child's":     NewThread("x").Fork(leak).Join().Free(100).Spec(),
		"a shared child twice": NewThread("x").Fork(leak).Fork(leak).Join().Join().Free(200).Spec(),
		"a grandchild's":       NewThread("x").ForkJoin(NewThread("c").ForkJoin(leak).Spec()).Free(100).Spec(),
	}
	for name, s := range ok {
		if err := Validate(s); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	bad := map[string]*ThreadSpec{
		"free before alloc":         NewThread("x").Free(1).Alloc(1).Spec(),
		"more than allocated":       NewThread("x").Alloc(100).Free(101).Spec(),
		"the parent's bytes":        NewThread("x").Alloc(100).ForkJoin(NewThread("c").Free(100).Spec()).Spec(),
		"a child's before a join":   NewThread("x").Fork(leak).Free(100).Join().Spec(),
		"past a shared child twice": NewThread("x").Fork(leak).Fork(leak).Join().Join().Free(201).Spec(),
	}
	for name, s := range bad {
		if err := Validate(s); err == nil || !strings.Contains(err.Error(), "covered") {
			t.Errorf("%s: Validate = %v, want an uncovered free", name, err)
		}
	}
}

func TestMeasureHandComputed(t *testing.T) {
	child := NewThread("child").Work(5).Spec()
	root := NewThread("root").Work(1).Fork(child).Work(2).Join().Spec()
	m := Measure(root)
	// W = 1 work + 1 fork + 5 child + 2 work + 1 join = 10
	if m.W != 10 {
		t.Errorf("W = %d, want 10", m.W)
	}
	// D: work(1)→1, fork→2, child ends at 2+5=7, parent work(2)→4,
	// join = max(4,7)+1 = 8.
	if m.D != 8 {
		t.Errorf("D = %d, want 8", m.D)
	}
	if m.TotalThreads != 2 || m.MaxLiveSerial != 2 {
		t.Errorf("threads = %d live = %d, want 2, 2", m.TotalThreads, m.MaxLiveSerial)
	}
}

func TestMeasureHeap(t *testing.T) {
	child := NewThread("child").Alloc(50).Free(50).Spec()
	root := NewThread("root").Alloc(100).Fork(child).Join().Free(100).Spec()
	m := Measure(root)
	if m.HeapHW != 150 {
		t.Errorf("HeapHW = %d, want 150", m.HeapHW)
	}
	if m.HeapEnd != 0 {
		t.Errorf("HeapEnd = %d, want 0", m.HeapEnd)
	}
	if m.TotalAlloc != 150 {
		t.Errorf("TotalAlloc = %d, want 150", m.TotalAlloc)
	}
}

func TestMeasureHeapEndIsWhatLeaks(t *testing.T) {
	if got := Measure(NewThread("leak").Alloc(100).Spec()).HeapEnd; got != 100 {
		t.Errorf("leaking root: HeapEnd = %d, want 100", got)
	}
	// The child's allocation outlives it; the parent frees half of it.
	child := NewThread("child").Alloc(300).Spec()
	root := NewThread("root").Fork(child).Join().Free(150).Spec()
	for _, o := range []Order{ChildFirst, ParentFirst} {
		if m := Walk(root, o); m.HeapEnd != 150 || m.HeapHW != 300 {
			t.Errorf("order %d: HeapEnd = %d, HeapHW = %d, want 150, 300", o, m.HeapEnd, m.HeapHW)
		}
	}
}

// TestWalkOrders: a fork whose branches differ reaches different peaks in
// the two orders. Child-first, the child's 300 bytes come and go before
// the parent's 1000; parent-first, the child runs at the join, on top of
// them. Dag properties agree.
func TestWalkOrders(t *testing.T) {
	grand := NewThread("grand").Work(1).Spec()
	child := NewThread("child").Alloc(300).Fork(grand).Join().Free(300).Spec()
	root := NewThread("root").Fork(child).Alloc(1000).Join().Free(1000).Spec()
	cf, pf := Walk(root, ChildFirst), Walk(root, ParentFirst)
	if cf.HeapHW != 1000 || pf.HeapHW != 1300 {
		t.Errorf("HeapHW child-first %d, parent-first %d; want 1000, 1300", cf.HeapHW, pf.HeapHW)
	}
	// Child-first the three threads nest; parent-first the child is live
	// from its fork, and the grandchild from the child's.
	if cf.MaxLiveSerial != 3 || pf.MaxLiveSerial != 3 {
		t.Errorf("MaxLiveSerial child-first %d, parent-first %d; want 3, 3", cf.MaxLiveSerial, pf.MaxLiveSerial)
	}
	cf.HeapHW, cf.MaxLiveSerial, pf.HeapHW, pf.MaxLiveSerial = 0, 0, 0, 0
	if cf != pf {
		t.Errorf("dag properties differ: child-first %+v, parent-first %+v", cf, pf)
	}
	if cf.Nesting != 2 || cf.TotalThreads != 3 {
		t.Errorf("Nesting = %d, TotalThreads = %d; want 2, 3", cf.Nesting, cf.TotalThreads)
	}
	// Two forks joined at the end are both live parent-first, never
	// together child-first.
	leaf := NewThread("leaf").Work(1).Spec()
	par := Par2("par", leaf, leaf)
	if cf, pf := Walk(par, ChildFirst).MaxLiveSerial, Walk(par, ParentFirst).MaxLiveSerial; cf != 2 || pf != 3 {
		t.Errorf("Par2 live threads child-first %d, parent-first %d; want 2, 3", cf, pf)
	}
}

func TestMeasureSiblingHeapNotConcurrent(t *testing.T) {
	// Two siblings each allocate 100 then free it. In the 1DF execution
	// they never coexist, so S1 = 100, not 200.
	leaf := func(int) *ThreadSpec { return NewThread("leaf").Alloc(100).Work(10).Free(100).Spec() }
	root := ParFor("loop", 2, leaf)
	m := Measure(root)
	if m.HeapHW != 100 {
		t.Errorf("HeapHW = %d, want 100", m.HeapHW)
	}
}

func TestParForThreadCount(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 100} {
		root := ParFor("loop", n, func(int) *ThreadSpec {
			return NewThread("leaf").Work(1).Spec()
		})
		m := Measure(root)
		want := int64(2*n - 1)
		if m.TotalThreads != want {
			t.Errorf("ParFor(%d): threads = %d, want %d", n, m.TotalThreads, want)
		}
		if err := Validate(root); err != nil {
			t.Errorf("ParFor(%d): %v", n, err)
		}
	}
}

func TestParForDepthLogarithmic(t *testing.T) {
	d64 := Measure(ParFor("l", 64, func(int) *ThreadSpec {
		return NewThread("leaf").Work(1).Spec()
	})).D
	d4096 := Measure(ParFor("l", 4096, func(int) *ThreadSpec {
		return NewThread("leaf").Work(1).Spec()
	})).D
	if d4096 >= 2*d64 {
		t.Errorf("depth should grow logarithmically: D(64)=%d D(4096)=%d", d64, d4096)
	}
}

func TestSerialForIsFlat(t *testing.T) {
	root := SerialFor("sloop", 10, func(int) *ThreadSpec {
		return NewThread("leaf").Work(3).Spec()
	})
	m := Measure(root)
	if m.TotalThreads != 11 {
		t.Errorf("threads = %d, want 11", m.TotalThreads)
	}
	if m.MaxLiveSerial != 2 {
		t.Errorf("MaxLiveSerial = %d, want 2", m.MaxLiveSerial)
	}
	// Depth is serial: 10 × (fork + 3 work + join) = 50.
	if m.D != 50 {
		t.Errorf("D = %d, want 50", m.D)
	}
}

func TestSharedSubtreeCountsPerFork(t *testing.T) {
	shared := NewThread("shared").Work(2).Spec()
	root := NewThread("root").Fork(shared).Fork(shared).Join().Join().Spec()
	m := Measure(root)
	if m.TotalThreads != 3 {
		t.Errorf("threads = %d, want 3 (shared spec forked twice)", m.TotalThreads)
	}
	if m.W != 2+2+2+2 { // 2 forks + 2 joins + 2×2 work
		t.Errorf("W = %d, want 8", m.W)
	}
}

// TestQuickWorkAdditive: for random binary trees, W equals the sum of all
// leaf works plus one fork and one join per interior pair.
func TestQuickWorkAdditive(t *testing.T) {
	f := func(works []uint8) bool {
		if len(works) == 0 {
			return true
		}
		if len(works) > 64 {
			works = works[:64]
		}
		var sum int64
		root := ParFor("q", len(works), func(i int) *ThreadSpec {
			n := int64(works[i])%17 + 1
			sum += n
			return NewThread("leaf").Work(n).Spec()
		})
		m := Measure(root)
		// Each interior Par2 thread is fork+fork+join+join = 4 actions.
		interior := int64(len(works) - 1)
		return m.W == sum+4*interior && m.D <= m.W && m.TotalThreads == 2*int64(len(works))-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDepthLEWork: depth never exceeds work, and both are positive,
// for arbitrary nested structures.
func TestQuickDepthLEWork(t *testing.T) {
	f := func(seed int64, fanDepth uint8) bool {
		root := randomTree(seed, int(fanDepth%6))
		m := Measure(root)
		return m.D >= 1 && m.D <= m.W
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomTree builds a deterministic pseudo-random nested-parallel spec.
func randomTree(seed int64, depth int) *ThreadSpec {
	h := seed*2654435761 + int64(depth)
	if h < 0 {
		h = -h
	}
	if depth == 0 {
		return NewThread("leaf").Work(h%7 + 1).Alloc(h % 64).Free(h % 64).Spec()
	}
	l := randomTree(seed+1, depth-1)
	r := randomTree(seed+2, depth-1)
	b := NewThread("node").Work(h%3 + 1).Fork(l)
	if h%2 == 0 {
		b.Join().Fork(r).Join() // serial composition
	} else {
		b.Fork(r).Join().Join() // parallel composition
	}
	return b.Spec()
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func BenchmarkMeasureParFor(b *testing.B) {
	root := ParFor("bench", 4096, func(int) *ThreadSpec {
		return NewThread("leaf").Work(10).Spec()
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Measure(root)
	}
}
