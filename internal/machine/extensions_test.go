package machine_test

import (
	"testing"

	"dfdeques/internal/machine"
	"dfdeques/internal/workload"
)

// TestStealFromTopCollapsesGranularity verifies the §1 claim that
// bottom-stealing ("typically the coarsest thread in the queue") is what
// buys DFDeques its large scheduling granularity: flipping the ablation
// switch must cut granularity by a large factor on a deep d&c dag.
func TestStealFromTopCollapsesGranularity(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.Levels = 13
	spec := workload.Synthetic(cfg)
	gran := func(top bool) float64 {
		var total float64
		const seeds = 3
		for seed := int64(0); seed < seeds; seed++ {
			cfg := machine.Config{Procs: 8, Seed: seed, Scheduler: "DFD", K: 40 << 10, StealFromTop: top}
			met, err := machine.New(cfg).Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			total += met.SchedGranularity()
		}
		return total / seeds
	}
	bottom, top := gran(false), gran(true)
	if bottom < 2*top {
		t.Errorf("bottom-steal granularity %.1f should be ≫ top-steal %.1f", bottom, top)
	}
}

// TestFullWindowIncreasesSpace verifies that restricting steals to the
// leftmost p deques (the high-priority window) is what keeps premature
// space down: widening the window must raise the space requirement on the
// temporary-heavy dense MM dag.
func TestFullWindowIncreasesSpace(t *testing.T) {
	spec := workload.DenseMM(workload.Fine)
	space := func(full bool) int64 {
		var total int64
		const seeds = 3
		for seed := int64(0); seed < seeds; seed++ {
			cfg := machine.Config{Procs: 8, Seed: seed, Scheduler: "DFD", K: 3000, FullWindow: full}
			met, err := machine.New(cfg).Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			total += met.HeapHW
		}
		return total / seeds
	}
	windowed, full := space(false), space(true)
	if full <= windowed*11/10 {
		t.Errorf("full-window space %d should clearly exceed leftmost-p space %d", full, windowed)
	}
}

// TestAdaptiveControllerTracksTarget: with a larger space target the
// controller must settle on a larger threshold, yielding fewer steals
// (coarser scheduling) than a small target.
func TestAdaptiveControllerTracksTarget(t *testing.T) {
	spec := workload.DenseMM(workload.Fine)
	run := func(target int64) machine.Metrics {
		cfg := machine.Config{Procs: 8, Seed: 3, Scheduler: "DFD", K: 1024, AdaptiveTarget: target}
		met, err := machine.New(cfg).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	small := run(160 << 10)
	large := run(512 << 10)
	if large.Steals >= small.Steals {
		t.Errorf("larger target should steal less: %d vs %d", large.Steals, small.Steals)
	}
	// The controller should keep space within ~3× its target (high-water
	// overshoots the steady state it regulates).
	if small.HeapHW > 3*(160<<10) {
		t.Errorf("space %d far above small target", small.HeapHW)
	}
}

// TestAdaptiveDisabledWithoutTarget: AdaptiveTarget=0 must behave exactly
// like fixed K.
func TestAdaptiveDisabledWithoutTarget(t *testing.T) {
	spec := workload.DenseMM(workload.Medium)
	runK := func(adaptive bool) machine.Metrics {
		cfg := machine.Config{Procs: 4, Seed: 5, Scheduler: "DFD", K: 3000}
		if adaptive {
			cfg.AdaptiveTarget = 0 // explicit no-op
		}
		met, err := machine.New(cfg).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	a, b := runK(false), runK(true)
	if a != b {
		t.Errorf("AdaptiveTarget=0 changed behaviour:\n%+v\n%+v", a, b)
	}
}

// TestAdaptiveClampsAtMinMax: the controller must respect its clamps, 64
// bytes and 16 MB, and still complete. An absurdly small target drives K
// down onto the lower clamp; an absurdly large one, from near the top,
// drives it up onto the upper clamp and no further.
func TestAdaptiveClampsAtMinMax(t *testing.T) {
	spec := workload.DenseMM(workload.Medium)
	for _, tc := range []struct{ k, target, want int64 }{
		{512, 1, 64},
		{12 << 20, 1 << 62, 16 << 20},
	} {
		m := machine.New(machine.Config{Procs: 4, Seed: 6, Scheduler: "DFD", K: tc.k, AdaptiveTarget: tc.target})
		if _, err := m.Run(spec); err != nil {
			t.Fatal(err)
		}
		if got := m.Threshold(); got != tc.want {
			t.Errorf("K from %d with target %d = %d, want the clamp %d", tc.k, tc.target, got, tc.want)
		}
	}
}

// TestAblationsStillCorrect: the ablated variants must still execute the
// computation correctly (same action count, balanced heap) — they change
// policy, not semantics.
func TestAblationsStillCorrect(t *testing.T) {
	spec := dncDag(7, 2048, 16)
	for _, top := range []bool{false, true} {
		for _, full := range []bool{false, true} {
			cfg := machine.Config{Procs: 8, Seed: 7, Scheduler: "DFD", K: 1024, StealFromTop: top, FullWindow: full}
			met, err := machine.New(cfg).Run(spec)
			if err != nil {
				t.Fatalf("top=%v full=%v: %v", top, full, err)
			}
			if met.TotalThreads == 0 || met.Steps == 0 {
				t.Fatalf("top=%v full=%v: degenerate run", top, full)
			}
		}
	}
}
