package workload

import (
	"math"
	"testing"

	"dfdeques/internal/dag"
)

func TestAllWorkloadsValidate(t *testing.T) {
	for _, w := range All() {
		for _, g := range []Grain{Medium, Fine} {
			spec := w.Build(g)
			if err := dag.Validate(spec); err != nil {
				t.Errorf("%s/%s: %v", w.Name, g, err)
			}
		}
	}
}

func TestFineGrainMeansMoreThreads(t *testing.T) {
	for _, w := range All() {
		med := dag.Measure(w.Build(Medium))
		fin := dag.Measure(w.Build(Fine))
		if fin.TotalThreads <= med.TotalThreads {
			t.Errorf("%s: fine threads %d ≤ medium %d", w.Name, fin.TotalThreads, med.TotalThreads)
		}
	}
}

func TestWorkScalesAreSimulable(t *testing.T) {
	// Keep every benchmark's work in a range the simulator can sweep many
	// times: 50 k – 10 M actions.
	for _, w := range All() {
		for _, g := range []Grain{Medium, Fine} {
			m := dag.Measure(w.Build(g))
			if m.W < 50_000 || m.W > 10_000_000 {
				t.Errorf("%s/%s: W = %d outside [5e4, 1e7]", w.Name, g, m.W)
			}
			if m.D <= 0 || m.D > m.W/4 {
				t.Errorf("%s/%s: depth %d too large vs W %d (not enough parallelism)", w.Name, g, m.D, m.W)
			}
		}
	}
}

func TestHeapHeavyFlagsMatchReality(t *testing.T) {
	for _, w := range All() {
		m := dag.Measure(w.Build(Fine))
		if w.HeapHeavy && m.HeapHW < 10_000 {
			t.Errorf("%s marked heap-heavy but S1 = %d", w.Name, m.HeapHW)
		}
		if !w.HeapHeavy && m.HeapHW > 1_000_000 {
			t.Errorf("%s not marked heap-heavy but S1 = %d", w.Name, m.HeapHW)
		}
	}
}

func TestHeapBalanced(t *testing.T) {
	for _, w := range All() {
		m := dag.Measure(w.Build(Fine))
		if m.HeapEnd != 0 {
			t.Errorf("%s: leaks %d bytes at end of serial execution", w.Name, m.HeapEnd)
		}
	}
}

func TestBuildsAreDeterministic(t *testing.T) {
	for _, w := range All() {
		a := dag.Measure(w.Build(Fine))
		b := dag.Measure(w.Build(Fine))
		if a != b {
			t.Errorf("%s: two builds differ:\n%+v\n%+v", w.Name, a, b)
		}
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("Dense MM")
	if !ok || w.Name != "Dense MM" {
		t.Fatal("ByName failed for Dense MM")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName matched a nonexistent workload")
	}
}

func TestOnlyBarnesHutHasLocks(t *testing.T) {
	hasLock := func(spec *dag.ThreadSpec) bool {
		found := false
		var walk func(*dag.ThreadSpec)
		seen := map[*dag.ThreadSpec]bool{}
		walk = func(s *dag.ThreadSpec) {
			if seen[s] {
				return
			}
			seen[s] = true
			for _, in := range s.Instrs {
				if in.Op == dag.OpAcquire {
					found = true
				}
				if in.Op == dag.OpFork {
					walk(in.Child)
				}
			}
		}
		walk(spec)
		return found
	}
	for _, w := range All() {
		got := hasLock(w.Build(Medium))
		if got != w.HasLocks {
			t.Errorf("%s: HasLocks=%v but dag lock usage=%v", w.Name, w.HasLocks, got)
		}
	}
}

func TestBarnesHutTreeBuildSubset(t *testing.T) {
	tb := dag.Measure(BarnesHutTreeBuild(Fine))
	full := dag.Measure(BarnesHut(Fine))
	if tb.W >= full.W {
		t.Errorf("tree-build W %d should be < full Barnes-Hut W %d", tb.W, full.W)
	}
	if tb.TotalThreads < 100 {
		t.Errorf("tree-build threads = %d, want ≥ 100", tb.TotalThreads)
	}
}

func TestSyntheticShape(t *testing.T) {
	cfg := DefaultSynthetic()
	m := dag.Measure(Synthetic(cfg))
	wantThreads := int64(1)<<(cfg.Levels+1) - 1
	if m.TotalThreads != wantThreads {
		t.Errorf("threads = %d, want %d", m.TotalThreads, wantThreads)
	}
	// S1 is about the sum of one root-to-leaf allocation path:
	// ~2·RootSpace; the randomization keeps it within [RootSpace, 4·Root].
	if m.HeapHW < cfg.RootSpace || m.HeapHW > 4*cfg.RootSpace {
		t.Errorf("S1 = %d, want ≈ 2×%d", m.HeapHW, cfg.RootSpace)
	}
}

func TestSyntheticSeedChangesDag(t *testing.T) {
	a := DefaultSynthetic()
	b := DefaultSynthetic()
	b.Seed++
	ma, mb := dag.Measure(Synthetic(a)), dag.Measure(Synthetic(b))
	if ma == mb {
		t.Error("different seeds produced identical synthetic dags")
	}
}

func TestLowerBoundShape(t *testing.T) {
	cfg := LowerBoundConfig{P: 8, D: 50, A: 1000}
	spec := LowerBound(cfg)
	if err := dag.Validate(spec); err != nil {
		t.Fatal(err)
	}
	m := dag.Measure(spec)
	// Serially the subgraphs run one after another, each peaking at D·A.
	if m.HeapHW != cfg.S1() {
		t.Errorf("serial S1 = %d, want %d", m.HeapHW, cfg.S1())
	}
	if m.HeapEnd != 0 {
		t.Errorf("heap leak: %d", m.HeapEnd)
	}
	// p/2 subgraphs: G0 plus (p/2 − 1) spines of D children each.
	want := int64((cfg.P/2 - 1) * cfg.D)
	if m.TotalThreads < want {
		t.Errorf("threads = %d, want ≥ %d", m.TotalThreads, want)
	}
	// Depth is Θ(D), not Θ(p·D): the subgraphs are parallel.
	if m.D > int64(6*cfg.D) {
		t.Errorf("depth %d too large for D=%d", m.D, cfg.D)
	}
}

func TestVolRendSharesBlocksBetweenNeighbors(t *testing.T) {
	spec := VolRend(Fine)
	// Count distinct blocks touched: must be far fewer than threads,
	// i.e. tiles share volume blocks.
	blocks := map[dag.BlockID]bool{}
	var walk func(*dag.ThreadSpec)
	seen := map[*dag.ThreadSpec]bool{}
	walk = func(s *dag.ThreadSpec) {
		if seen[s] {
			return
		}
		seen[s] = true
		for _, in := range s.Instrs {
			if in.Op == dag.OpWork && in.Blk != 0 {
				blocks[in.Blk] = true
			}
			if in.Op == dag.OpFork {
				walk(in.Child)
			}
		}
	}
	walk(spec)
	threads := dag.Measure(spec).TotalThreads
	if int64(len(blocks))*2 >= threads {
		t.Errorf("volrend: %d blocks for %d threads — no sharing", len(blocks), threads)
	}
}

func TestQuicksortShape(t *testing.T) {
	for _, g := range []Grain{Medium, Fine} {
		spec := Quicksort(g)
		if err := dag.Validate(spec); err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		m := dag.Measure(spec)
		if m.HeapEnd != 0 {
			t.Errorf("%s: leaks %d bytes", g, m.HeapEnd)
		}
		// Split buffers along a root-to-leaf path: S1 ≈ 2·keys·8.
		if m.HeapHW < 1<<14*8 || m.HeapHW > 4*(1<<14)*8 {
			t.Errorf("%s: S1 = %d outside expected band", g, m.HeapHW)
		}
		if m.W < 50_000 {
			t.Errorf("%s: W = %d too small", g, m.W)
		}
		// Parallelism must be healthy despite the serial partition passes.
		if m.D > m.W/6 {
			t.Errorf("%s: W/D = %.1f too serial", g, float64(m.W)/float64(m.D))
		}
	}
	med := dag.Measure(Quicksort(Medium)).TotalThreads
	fin := dag.Measure(Quicksort(Fine)).TotalThreads
	if fin <= med {
		t.Errorf("fine threads %d ≤ medium %d", fin, med)
	}
}

func TestQuicksortSpaceOrderingAcrossSchedulers(t *testing.T) {
	// The §2.1 example behaves like the other d&c benchmarks: quota
	// schedulers bound its buffer blow-up.
	spec := Quicksort(Fine)
	// (runs through the machine simulator in internal/machine tests; here
	// just pin determinism)
	a, b := dag.Measure(spec), dag.Measure(Quicksort(Fine))
	if a != b {
		t.Error("quicksort build not deterministic")
	}
}

func TestDenseMMSerialSpaceMatchesAnalyticFormula(t *testing.T) {
	// Temporaries along one recursion path sum to a geometric series:
	// S1 = 8·N²·(1 + 1/4 + 1/16 + …) = (4/3)·8·N², N = 128, leaf 16.
	m := dag.Measure(DenseMM(Fine))
	analytic := int64(math.Floor(4.0 / 3.0 * 8 * 128 * 128))
	lo, hi := analytic*9/10, analytic*11/10
	if m.HeapHW < lo || m.HeapHW > hi {
		t.Errorf("S1 = %d, want ≈ %d (±10%%)", m.HeapHW, analytic)
	}
}

func TestFFTDepthLogarithmicInN(t *testing.T) {
	// FFT's combine passes parallelize at large nodes, so depth is
	// O(leaf·log + n/16-ish), far below the serial O(n·log n).
	m := dag.Measure(FFT(Fine))
	if m.D > m.W/10 {
		t.Errorf("FFT W/D = %.1f — combine not parallel enough", float64(m.W)/float64(m.D))
	}
}

func TestFMMThreadCountsGrowWithDepth(t *testing.T) {
	med := dag.Measure(FMM(Medium))
	fin := dag.Measure(FMM(Fine))
	// Quadtree: one level deeper ≈ 4× the cells.
	if fin.TotalThreads < 3*med.TotalThreads {
		t.Errorf("FMM fine threads %d should be ≈4× medium %d", fin.TotalThreads, med.TotalThreads)
	}
}
