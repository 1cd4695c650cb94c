package machine_test

import (
	"math/rand"
	"slices"
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
)

// dncDag builds a divide-and-conquer dag in the style of the paper's §6
// synthetic benchmark: `levels` levels of binary recursion; each node
// allocates `space` bytes, does `work` actions, recurses, frees, with
// space and work decreasing geometrically (factor 2) down the tree.
func dncDag(levels int, space, work int64) *dag.ThreadSpec {
	if levels == 0 {
		return dag.NewThread("leaf").Alloc(space).Work(work + 1).Free(space).Spec()
	}
	l := dncDag(levels-1, space/2, work/2)
	r := dncDag(levels-1, space/2, work/2)
	return dag.NewThread("node").
		Alloc(space).Work(work + 1).
		Fork(l).Fork(r).Join().Join().
		Free(space).Spec()
}

// irregularDag builds a randomized nested-parallel dag for property tests.
func irregularDag(rng *rand.Rand, depth int) *dag.ThreadSpec {
	b := dag.NewThread("n")
	if rng.Intn(3) == 0 {
		sz := int64(rng.Intn(200))
		b.Alloc(sz).Work(int64(rng.Intn(5) + 1)).Free(sz)
	}
	if depth > 0 {
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			child := irregularDag(rng, depth-1)
			if rng.Intn(2) == 0 {
				b.ForkJoin(child)
			} else {
				b.Fork(child).Work(int64(rng.Intn(4) + 1)).Join()
			}
		}
	}
	b.Work(int64(rng.Intn(6) + 1))
	return b.Spec()
}

func run(t *testing.T, spec *dag.ThreadSpec, cfg machine.Config) machine.Metrics {
	t.Helper()
	met, err := machine.New(cfg).Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Scheduler, err)
	}
	return met
}

// TestLemma31InvariantsRandomDags runs DFDeques with full invariant
// checking over a battery of random nested-parallel dags, processor
// counts, memory thresholds, and seeds.
func TestLemma31InvariantsRandomDags(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		spec := irregularDag(rng, 5)
		p := 1 + rng.Intn(8)
		k := int64(50)
		if trial%2 == 0 {
			k = 1000
		}
		cfg := machine.Config{Procs: p, Seed: int64(trial), Scheduler: "DFD", K: k, CheckInvariants: true}
		if _, err := machine.New(cfg).Run(spec); err != nil {
			t.Fatalf("trial %d (p=%d K=%d): %v", trial, p, k, err)
		}
	}
}

// TestLemma31InvariantsDnc checks the invariants on the structured d&c dag
// with small K, where preemptions and dummy threads exercise every code
// path.
func TestLemma31InvariantsDnc(t *testing.T) {
	spec := dncDag(7, 4096, 64)
	for _, p := range []int{1, 2, 4, 8} {
		for _, k := range []int64{64, 512, 8192, 0} {
			cfg := machine.Config{Procs: p, Seed: 42, Scheduler: "DFD", K: k, CheckInvariants: true}
			if _, err := machine.New(cfg).Run(spec); err != nil {
				t.Fatalf("p=%d K=%d: %v", p, k, err)
			}
		}
	}
}

// TestWSInvariants runs the Lemma 3.1 checker over the same battery under
// "WS", which is DFDeques(∞).
func TestWSInvariants(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		spec := irregularDag(rng, 5)
		cfg := machine.Config{Procs: 1 + rng.Intn(8), Seed: int64(trial), Scheduler: "WS", CheckInvariants: true}
		if _, err := machine.New(cfg).Run(spec); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestADFInvariants runs the ADF ready-queue order checker.
func TestADFInvariants(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(200 + trial)))
		spec := irregularDag(rng, 5)
		cfg := machine.Config{Procs: 1 + rng.Intn(8), Seed: int64(trial), Scheduler: "ADF", K: 100, CheckInvariants: true}
		if _, err := machine.New(cfg).Run(spec); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSpaceBoundDFDeques verifies Theorem 4.4: expected space is
// S1 + O(min(K,S1)·p·D). We check each run against the bound with a
// generous constant, averaging over seeds to approximate expectation.
func TestSpaceBoundDFDeques(t *testing.T) {
	spec := dncDag(8, 8192, 32)
	sm := dag.Measure(spec)
	for _, p := range []int{2, 4, 8} {
		for _, k := range []int64{256, 2048, 16384} {
			var total int64
			const seeds = 5
			for seed := int64(0); seed < seeds; seed++ {
				met := run(t, spec, machine.Config{Procs: p, Seed: seed, Scheduler: "DFD", K: k})
				total += met.HeapHW
			}
			avg := total / seeds
			minKS1 := min(k, sm.HeapHW)
			// Transformed dag depth grows by at most a constant factor.
			bound := sm.HeapHW + 8*minKS1*int64(p)*sm.D
			if avg > bound {
				t.Errorf("p=%d K=%d: avg space %d exceeds Thm 4.4 bound %d (S1=%d D=%d)",
					p, k, avg, bound, sm.HeapHW, sm.D)
			}
		}
	}
}

// TestSpaceBoundADF verifies the depth-first scheduler's S1 + O(K·p·D)
// bound on the same workload.
func TestSpaceBoundADF(t *testing.T) {
	spec := dncDag(8, 8192, 32)
	sm := dag.Measure(spec)
	for _, p := range []int{2, 8} {
		met := run(t, spec, machine.Config{Procs: p, Seed: 1, Scheduler: "ADF", K: 512})
		bound := sm.HeapHW + 8*512*int64(p)*sm.D
		if met.HeapHW > bound {
			t.Errorf("p=%d: ADF space %d exceeds bound %d", p, met.HeapHW, bound)
		}
	}
}

// TestTimeBoundDFDeques verifies Theorem 4.8: expected time is
// O(W/p + SA/(p·K) + D) under the pure cost model.
func TestTimeBoundDFDeques(t *testing.T) {
	spec := dncDag(8, 4096, 64)
	sm := dag.Measure(spec)
	for _, p := range []int{1, 2, 4, 8} {
		for _, k := range []int64{512, 4096, 0} {
			var total int64
			const seeds = 5
			for seed := int64(0); seed < seeds; seed++ {
				met := run(t, spec, machine.Config{Procs: p, Seed: seed, Scheduler: "DFD", K: k})
				total += met.Steps
			}
			avg := total / seeds
			kk := k
			if kk == 0 {
				kk = 1 << 60
			}
			bound := 8 * (sm.W/int64(p) + sm.TotalAlloc/(int64(p)*kk) + sm.D)
			if avg > bound {
				t.Errorf("p=%d K=%d: avg time %d exceeds Thm 4.8 bound %d", p, k, avg, bound)
			}
		}
	}
}

// TestGreedyLowerBounds: no scheduler can beat max(W/p, D).
func TestGreedyLowerBounds(t *testing.T) {
	spec := dncDag(6, 0, 128)
	sm := dag.Measure(spec)
	for _, name := range []string{"DFD", "WS", "ADF", "FIFO"} {
		met := run(t, spec, machine.Config{Procs: 4, Seed: 9, Scheduler: name, K: 1024})
		if met.Steps < sm.W/4 || met.Steps < sm.D {
			t.Errorf("%s: time %d beats greedy lower bound max(%d, %d)", name, met.Steps, sm.W/4, sm.D)
		}
	}
}

// TestDFDInfNeverExceedsPDeques: the structural half of the §3.3 claim
// that DFDeques(∞) is the WS work stealer — R never holds more than p
// deques when the quota never expires.
func TestDFDInfNeverExceedsPDeques(t *testing.T) {
	spec := dncDag(8, 1024, 16)
	for _, p := range []int{1, 2, 4, 8} {
		m := machine.New(machine.Config{Procs: p, Seed: 3, Scheduler: "DFD-inf"})
		if _, err := m.Run(spec); err != nil {
			t.Fatal(err)
		}
		if m.MaxDeques() > p {
			t.Errorf("p=%d: DFD(∞) had %d deques in R", p, m.MaxDeques())
		}
	}
}

// TestDFDSmallKExceedsPDeques: with a small quota the number of deques
// must be able to exceed p (that is what distinguishes the algorithm from
// work stealing).
func TestDFDSmallKExceedsPDeques(t *testing.T) {
	spec := dncDag(8, 8192, 4)
	m := machine.New(machine.Config{Procs: 4, Seed: 3, Scheduler: "DFD", K: 64})
	if _, err := m.Run(spec); err != nil {
		t.Fatal(err)
	}
	if m.MaxDeques() <= 4 {
		t.Errorf("DFD(64) never exceeded p deques (max %d); quota give-up path untested", m.MaxDeques())
	}
}

// TestSpaceOrdering reproduces the paper's central qualitative claim
// (§1, §7): on allocation-heavy fine-grained d&c programs,
// space(ADF) ≤ space(DFD(K)) ≤ space(DFD(∞) ≈ WS).
func TestSpaceOrdering(t *testing.T) {
	// Many parallel branches each allocating and holding memory across
	// work: the workload family where work stealing's p·S1 behaviour
	// shows (each stolen branch holds its allocation concurrently).
	leaf := func(int) *dag.ThreadSpec {
		return dag.NewThread("leaf").Alloc(10000).Work(50).Free(10000).Spec()
	}
	spec := dag.ParFor("hold", 64, leaf)
	const seeds = 5
	avg := func(name string, k int64) int64 {
		var tot int64
		for seed := int64(0); seed < seeds; seed++ {
			tot += run(t, spec, machine.Config{Procs: 8, Seed: seed, Scheduler: name, K: k}).HeapHW
		}
		return tot / seeds
	}
	adf := avg("ADF", 1000)
	dfd := avg("DFD", 1000)
	ws := avg("DFD", 0)
	if adf > dfd*12/10 {
		t.Errorf("ADF space %d should be ≤≈ DFD %d", adf, dfd)
	}
	if dfd >= ws {
		t.Errorf("DFD(1000) space %d should be < WS %d", dfd, ws)
	}
}

// TestGranularityOrdering reproduces Fig. 16's qualitative shape:
// scheduling granularity grows with K, and WS has the largest granularity
// while ADF has the smallest.
func TestGranularityOrdering(t *testing.T) {
	spec := dncDag(10, 16384, 8)
	const seeds = 5
	gran := func(name string, k int64) float64 {
		var tot float64
		for seed := int64(0); seed < seeds; seed++ {
			tot += run(t, spec, machine.Config{Procs: 8, Seed: seed, Scheduler: name, K: k}).SchedGranularity()
		}
		return tot / seeds
	}
	adf := gran("ADF", 1024)
	small := gran("DFD", 1024)
	large := gran("DFD", 65536)
	ws := gran("DFD", 0)
	if !(small < large) {
		t.Errorf("granularity should grow with K: DFD(1k)=%.1f DFD(64k)=%.1f", small, large)
	}
	if !(adf <= small*11/10) {
		t.Errorf("ADF granularity %.1f should be ≤ DFD(1k) %.1f", adf, small)
	}
	if !(large <= ws*13/10) {
		t.Errorf("DFD(64k) granularity %.1f should be ≤≈ WS %.1f", large, ws)
	}
}

// TestKTradeoffMonotonic reproduces Fig. 15's shape on the simulator:
// larger K ⇒ space up (weakly), steals down.
func TestKTradeoffMonotonic(t *testing.T) {
	spec := dncDag(10, 16384, 8)
	type pt struct {
		space  int64
		steals int64
	}
	var pts []pt
	for _, k := range []int64{256, 2048, 16384, 131072} {
		var sp, st int64
		const seeds = 5
		for seed := int64(0); seed < seeds; seed++ {
			met := run(t, spec, machine.Config{Procs: 8, Seed: seed, Scheduler: "DFD", K: k})
			sp += met.HeapHW
			st += met.Steals
		}
		pts = append(pts, pt{sp / seeds, st / seeds})
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].steals > pts[i-1].steals*12/10 {
			t.Errorf("steals should fall as K grows: %+v", pts)
		}
	}
	if pts[0].space > pts[len(pts)-1].space {
		// First point (smallest K) should not need more space than last.
		t.Errorf("space should grow (weakly) with K: %+v", pts)
	}
}

// TestDummyThreadsDelayBigAllocs: with small K, a program whose parallel
// branches differ in priority must see its big allocation delayed, giving
// DFD(K) strictly less space than DFD(∞) on this family.
func TestDummyThreadsDelayBigAllocs(t *testing.T) {
	// Many parallel branches, each allocating a sizable chunk and holding
	// it across some work.
	leaf := func(int) *dag.ThreadSpec {
		return dag.NewThread("leaf").Alloc(10000).Work(50).Free(10000).Spec()
	}
	spec := dag.ParFor("big", 64, leaf)
	const seeds = 5
	var withK, noK int64
	for seed := int64(0); seed < seeds; seed++ {
		withK += run(t, spec, machine.Config{Procs: 8, Seed: seed, Scheduler: "DFD", K: 1000}).HeapHW
		noK += run(t, spec, machine.Config{Procs: 8, Seed: seed, Scheduler: "DFD", K: 0}).HeapHW
	}
	if withK >= noK {
		t.Errorf("DFD(1000) avg space %d should be < DFD(∞) %d", withK/seeds, noK/seeds)
	}
}

// TestSchedulerNames pins the report names used by the lab drivers and the
// threshold each one runs with: "DFD-inf" and "WS" are DFDeques(∞), and
// FIFO has no threshold, whatever K says.
func TestSchedulerNames(t *testing.T) {
	if want := []string{"DFD", "DFD-inf", "WS", "ADF", "FIFO"}; !slices.Equal(machine.Names, want) {
		t.Errorf("Names = %q, want %q", machine.Names, want)
	}
	spec := dag.NewThread("one").Work(1).Spec()
	for _, c := range []struct {
		name    string
		k, want int64
	}{
		{"DFD", 100, 100}, {"DFD", 0, 0}, {"DFD-inf", 3000, 0}, {"WS", 3000, 0}, {"ADF", 1, 1}, {"FIFO", 3000, 0},
	} {
		m := machine.New(machine.Config{Procs: 1, Scheduler: c.name, K: c.k})
		if _, err := m.Run(spec); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := m.Threshold(); got != c.want {
			t.Errorf("%s at K = %d runs with threshold %d, want %d", c.name, c.k, got, c.want)
		}
	}
}
