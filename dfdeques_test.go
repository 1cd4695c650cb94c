package dfdeques_test

import (
	"fmt"
	"testing"

	"dfdeques"
	"dfdeques/internal/workload"
)

func TestFacadeSimulate(t *testing.T) {
	prog := dfdeques.ParFor("loop", 16, func(int) *dfdeques.Program {
		return dfdeques.NewProgram("leaf").Alloc(100).Work(50).Free(100).Spec()
	})
	for _, s := range []string{"DFD", "DFD-inf", "WS", "ADF", "FIFO"} {
		met, err := dfdeques.Simulate(prog, dfdeques.SimConfig{Procs: 4, Scheduler: s, K: 1000, Seed: 2, CheckInvariants: true})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		want := dfdeques.MeasureProgram(prog)
		if s == "WS" || s == "FIFO" || s == "DFD-inf" {
			// No quota ⇒ no dummy actions ⇒ exact action count.
			if met.Actions != want.W {
				t.Errorf("%s: actions = %d, want %d", s, met.Actions, want.W)
			}
		}
		if met.HeapHW < 100 {
			t.Errorf("%s: heap HW = %d, want ≥ 100", s, met.HeapHW)
		}
	}
}

func TestFacadeSimulateDefaults(t *testing.T) {
	prog := dfdeques.NewProgram("one").Work(10).Spec()
	met, err := dfdeques.Simulate(prog, dfdeques.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if met.Actions != 10 {
		t.Errorf("actions = %d, want 10", met.Actions)
	}
}

func TestFacadeUnknownScheduler(t *testing.T) {
	prog := dfdeques.NewProgram("one").Work(1).Spec()
	if _, err := dfdeques.Simulate(prog, dfdeques.SimConfig{Scheduler: "nope"}); err == nil {
		t.Fatal("expected error for unknown scheduler")
	}
}

func TestFacadeRun(t *testing.T) {
	var total int64
	stats, err := dfdeques.Run(dfdeques.RuntimeConfig{
		Workers: 2,
		Sched:   dfdeques.SchedDFDeques,
		K:       10_000,
		Seed:    1,
	}, func(t *dfdeques.Thread) {
		var a, b int64
		h := t.Fork(func(c *dfdeques.Thread) { a = 21 })
		b = 21
		t.Join(h)
		total = a + b
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 42 {
		t.Fatalf("total = %d, want 42", total)
	}
	if stats.TotalThreads != 2 {
		t.Fatalf("threads = %d, want 2", stats.TotalThreads)
	}
}

func ExampleSimulate() {
	// A parallel loop of 8 threads, each allocating 1 kB across 100 units
	// of work, simulated under DFDeques(2000) on 4 processors.
	prog := dfdeques.ParFor("example", 8, func(int) *dfdeques.Program {
		return dfdeques.NewProgram("leaf").Alloc(1000).Work(100).Free(1000).Spec()
	})
	met, err := dfdeques.Simulate(prog, dfdeques.SimConfig{
		Procs: 4, Scheduler: "DFD", K: 2000, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	sm := dfdeques.MeasureProgram(prog)
	fmt.Printf("W=%d D=%d S1=%d\n", sm.W, sm.D, sm.HeapHW)
	fmt.Printf("ran %d actions, space ≤ %d bytes\n", met.Actions, met.HeapHW)
	// Output:
	// W=844 D=114 S1=1000
	// ran 844 actions, space ≤ 4000 bytes
}

func ExampleRun() {
	_, err := dfdeques.Run(dfdeques.RuntimeConfig{
		Workers: 2, Sched: dfdeques.SchedDFDeques, Seed: 1,
	}, func(t *dfdeques.Thread) {
		var left, right int
		h := t.Fork(func(c *dfdeques.Thread) { left = 20 })
		right = 22
		t.Join(h)
		fmt.Println(left + right)
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// 42
}

func TestFacadeVariants(t *testing.T) {
	prog := dfdeques.ParFor("loop", 64, func(int) *dfdeques.Program {
		return dfdeques.NewProgram("leaf").Alloc(2000).Work(40).Free(2000).Spec()
	})
	base, err := dfdeques.Simulate(prog, dfdeques.SimConfig{Procs: 8, Scheduler: "DFD", K: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := dfdeques.Simulate(prog, dfdeques.SimConfig{
		Procs: 8, Scheduler: "DFD", K: 1000, Seed: 4, AdaptiveTarget: 64 << 10, CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := dfdeques.MeasureProgram(prog)
	for name, met := range map[string]dfdeques.SimMetrics{
		"base": base, "adaptive": adaptive,
	} {
		if met.Actions < want.W {
			t.Errorf("%s: actions %d below W %d", name, met.Actions, want.W)
		}
	}
}

// TestFacadeVariantFields: the DFDeques variant fields reach DFD-inf and
// WS, which is DFDeques(∞) — Dense MM at p = 8 with StealFromTop makes the
// 382 steals pinned in internal/machine, not the plain schedule's 84 — and
// are refused for the schedulers that have no such variant. The adaptive
// controller adapts a finite K, so AdaptiveTarget is refused wherever the
// threshold is ∞.
func TestFacadeVariantFields(t *testing.T) {
	w, _ := workload.ByName("Dense MM")
	prog := w.Build(workload.Fine)
	for _, s := range []string{"DFD-inf", "WS"} {
		met, err := dfdeques.Simulate(prog, dfdeques.SimConfig{Procs: 8, Scheduler: s, Seed: 1, StealFromTop: true})
		if err != nil {
			t.Fatal(err)
		}
		if met.Steals != 382 {
			t.Errorf("%s with StealFromTop: %d steals, want 382", s, met.Steals)
		}
		if _, err := dfdeques.Simulate(prog, dfdeques.SimConfig{Procs: 8, Scheduler: s, Seed: 1, FullWindow: true}); err != nil {
			t.Errorf("%s refused FullWindow: %v", s, err)
		}
	}
	for _, cfg := range []dfdeques.SimConfig{
		{Scheduler: "DFD-inf", K: 3000, AdaptiveTarget: 1 << 16},
		{Scheduler: "WS", K: 3000, AdaptiveTarget: 1 << 16},
		{Scheduler: "DFD", K: 0, AdaptiveTarget: 1 << 16},
	} {
		cfg.Procs = 8
		if _, err := dfdeques.Simulate(prog, cfg); err == nil {
			t.Errorf("%s at K = ∞ accepted AdaptiveTarget: %+v", cfg.Scheduler, cfg)
		}
	}
	if _, err := dfdeques.Simulate(prog, dfdeques.SimConfig{Procs: 8, Scheduler: "DFD", K: 3000, AdaptiveTarget: 1 << 16}); err != nil {
		t.Errorf("DFD at a finite K refused AdaptiveTarget: %v", err)
	}
	for _, s := range []string{"ADF", "FIFO"} {
		for _, cfg := range []dfdeques.SimConfig{{AdaptiveTarget: 1 << 20}, {StealFromTop: true}, {FullWindow: true}} {
			cfg.Scheduler, cfg.K = s, 3000
			if _, err := dfdeques.Simulate(prog, cfg); err == nil {
				t.Errorf("%s accepted a DFDeques variant: %+v", s, cfg)
			}
		}
	}
}

func TestFacadeFutureOnRuntime(t *testing.T) {
	var f dfdeques.Future
	var got any
	_, err := dfdeques.Run(dfdeques.RuntimeConfig{Workers: 2, Sched: dfdeques.SchedDFDeques, Seed: 5},
		func(r *dfdeques.Thread) {
			h := r.Fork(func(c *dfdeques.Thread) { got = f.Get(c) })
			f.Set(r, "hello")
			r.Join(h)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("future got %v", got)
	}
}
