package machine_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
)

// TestQuickActionConservation: for arbitrary nested-parallel programs and
// any scheduler, the machine must execute exactly the program's W actions
// (plus dummy-tree actions under a quota, plus lock spins), must leave the
// heap balanced, and must create exactly the program's thread population
// (plus dummy threads). This is the simulator's conservation law.
func TestQuickActionConservation(t *testing.T) {
	names := []string{"DFD-inf", "FIFO", "ADF"}
	f := func(seed int64, procs uint8, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng, 4)
		want := dag.Measure(spec)
		p := int(procs%8) + 1
		m := machine.New(machine.Config{Procs: p, Seed: seed, Scheduler: names[int(pick)%len(names)]})
		met, err := m.Run(spec)
		if err != nil {
			t.Log(err)
			return false
		}
		if met.Actions != want.W {
			t.Logf("actions %d != W %d", met.Actions, want.W)
			return false
		}
		if met.TotalThreads != want.TotalThreads {
			t.Logf("threads %d != %d", met.TotalThreads, want.TotalThreads)
			return false
		}
		if m.HeapLive() != want.HeapEnd {
			t.Logf("heap end %d != %d", m.HeapLive(), want.HeapEnd)
			return false
		}
		if met.HeapHW < want.HeapEnd || met.HeapHW > want.TotalAlloc {
			t.Logf("heap HW %d outside [%d, %d]", met.HeapHW, want.HeapEnd, want.TotalAlloc)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConservationWithQuota: under finite K the action count grows
// only by the dummy machinery (1 action per dummy leaf + 4 per interior
// tree thread), and the heap still balances.
func TestQuickConservationWithQuota(t *testing.T) {
	f := func(seed int64, kSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng, 4)
		want := dag.Measure(spec)
		k := int64(kSel%64)*16 + 16
		m := machine.New(machine.Config{Procs: 4, Seed: seed, Scheduler: "DFD", K: k})
		met, err := m.Run(spec)
		if err != nil {
			t.Log(err)
			return false
		}
		if met.Actions < want.W {
			t.Logf("actions %d below W %d", met.Actions, want.W)
			return false
		}
		// Dummy overhead bound: each dummy leaf adds its action plus its
		// share of tree forks/joins; interior threads have 4 actions.
		extra := met.Actions - want.W
		if met.DummyThreads == 0 && extra != 0 {
			t.Logf("no dummies but %d extra actions", extra)
			return false
		}
		if extra > 10*met.DummyThreads+10 {
			t.Logf("extra actions %d too large for %d dummies", extra, met.DummyThreads)
			return false
		}
		return m.HeapLive() == want.HeapEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSpaceNeverBelowS1Lower: no schedule can use less peak heap than
// the maximum single allocation, and every depth-first scheduler on p=1
// uses exactly S1.
func TestQuickSerialSpaceExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng, 4)
		want := dag.Measure(spec)
		for _, name := range []string{"DFD-inf", "ADF"} {
			m := machine.New(machine.Config{Procs: 1, Seed: seed, Scheduler: name})
			met, err := m.Run(spec)
			if err != nil || met.HeapHW != want.HeapHW {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFastForwardEquivalence: the bulk-advance optimization must be
// observationally invisible — identical metrics with and without it, for
// arbitrary programs, schedulers, and cost-model extensions.
func TestQuickFastForwardEquivalence(t *testing.T) {
	f := func(seed int64, procs uint8, pick uint8, penalize bool) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng, 4)
		p := int(procs%8) + 1
		cfg := machine.Config{Procs: p, Seed: seed}
		switch pick % 3 {
		case 0:
			cfg.Scheduler, cfg.K = "DFD", 200
		case 1:
			cfg.Scheduler = "DFD-inf"
		default:
			cfg.Scheduler = "FIFO"
		}
		if penalize {
			cfg.StealLatency = 5
			cfg.QueueLatency = 2
		}
		m1 := machine.New(cfg)
		a, err1 := m1.Run(spec)
		cfg.DisableFastForward = true
		m2 := machine.New(cfg)
		b, err2 := m2.Run(spec)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if a != b {
			t.Logf("fast-forward changed results:\n%+v\n%+v", a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
