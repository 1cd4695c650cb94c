package sched_test

import (
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
	"dfdeques/internal/sched"
	"dfdeques/internal/workload"
)

// TestSimulatorSchedulesArePinned pins the simulator's DFDeques schedules
// exactly: every lock-free benchmark dag (fine grain) under DFD (K = 3000,
// dfdsim's default) and DFD-inf, plain and under each ablation switch, at
// p = 8 and seed 1. The experiment tables all read these schedules, so a
// change to the pool, the quota or the steal arbitration that moves one
// of them must update this table on purpose and re-record the tables.
func TestSimulatorSchedulesArePinned(t *testing.T) {
	dags := map[string]*dag.ThreadSpec{
		"synthetic":  workload.Synthetic(workload.DefaultSynthetic()),
		"lowerbound": workload.LowerBound(workload.LowerBoundConfig{P: 8, D: 60, A: 3000}),
	}
	for _, w := range workload.All() {
		if !w.HasLocks {
			dags[w.Name] = w.Build(workload.Fine)
		}
	}
	for _, c := range []struct {
		bench   string
		k       int64
		variant string // plain, top (StealFromTop) or full (FullWindow)

		steps, steals, maxLive, heapHW int64
	}{
		{"Vol. Rend.", 3000, "plain", 9502, 93, 53, 0},
		{"Vol. Rend.", 3000, "top", 9489, 230, 48, 0},
		{"Vol. Rend.", 3000, "full", 9502, 93, 53, 0},
		{"Vol. Rend.", 0, "plain", 9502, 93, 53, 0},
		{"Vol. Rend.", 0, "top", 9489, 230, 48, 0},
		{"Vol. Rend.", 0, "full", 9502, 93, 53, 0},
		{"Dense MM", 3000, "plain", 19620, 1448, 107, 262144},
		{"Dense MM", 3000, "top", 19607, 1536, 82, 286720},
		{"Dense MM", 3000, "full", 19244, 823, 216, 458752},
		{"Dense MM", 0, "plain", 18974, 84, 78, 450560},
		{"Dense MM", 0, "top", 19141, 382, 72, 385024},
		{"Dense MM", 0, "full", 18974, 84, 78, 450560},
		{"Sparse MVM", 3000, "plain", 9837, 116, 62, 0},
		{"Sparse MVM", 3000, "top", 9890, 432, 55, 0},
		{"Sparse MVM", 3000, "full", 9837, 116, 62, 0},
		{"Sparse MVM", 0, "plain", 9837, 116, 62, 0},
		{"Sparse MVM", 0, "top", 9890, 432, 55, 0},
		{"Sparse MVM", 0, "full", 9837, 116, 62, 0},
		{"FFTW", 3000, "plain", 8089, 142, 46, 9728},
		{"FFTW", 3000, "top", 8009, 128, 45, 9536},
		{"FFTW", 3000, "full", 8089, 142, 46, 9728},
		{"FFTW", 0, "plain", 8083, 141, 46, 9728},
		{"FFTW", 0, "top", 8208, 162, 43, 8704},
		{"FFTW", 0, "full", 8083, 141, 46, 9728},
		{"FMM", 3000, "plain", 74428, 6281, 242, 141856},
		{"FMM", 3000, "top", 74810, 7199, 149, 91648},
		{"FMM", 3000, "full", 73433, 1857, 989, 590784},
		{"FMM", 0, "plain", 73162, 50, 124, 89856},
		{"FMM", 0, "top", 73665, 1761, 118, 87328},
		{"FMM", 0, "full", 73162, 50, 124, 89856},
		{"Decision Tr.", 3000, "plain", 12491, 2141, 76, 1192832},
		{"Decision Tr.", 3000, "top", 12718, 2130, 54, 1081232},
		{"Decision Tr.", 3000, "full", 12345, 2049, 84, 1387680},
		{"Decision Tr.", 0, "plain", 11658, 371, 47, 1256512},
		{"Decision Tr.", 0, "top", 11790, 396, 42, 1147680},
		{"Decision Tr.", 0, "full", 11658, 371, 47, 1256512},
		{"synthetic", 3000, "plain", 56051, 4498, 162, 1411906},
		{"synthetic", 3000, "top", 56364, 7126, 147, 1398741},
		{"synthetic", 3000, "full", 55677, 2206, 284, 1830415},
		{"synthetic", 0, "plain", 55065, 130, 110, 1418965},
		{"synthetic", 0, "top", 55260, 1185, 109, 1396001},
		{"synthetic", 0, "full", 55065, 130, 110, 1418965},
		{"lowerbound", 3000, "plain", 341, 308, 48, 603000},
		{"lowerbound", 3000, "top", 337, 306, 43, 642000},
		{"lowerbound", 3000, "full", 330, 307, 58, 648000},
		{"lowerbound", 0, "plain", 239, 75, 10, 585000},
		{"lowerbound", 0, "top", 229, 71, 10, 585000},
		{"lowerbound", 0, "full", 239, 75, 10, 585000},
	} {
		s := sched.NewDFDeques(c.k)
		s.StealFromTop = c.variant == "top"
		s.FullWindow = c.variant == "full"
		spec, ok := dags[c.bench]
		if !ok {
			t.Fatalf("no dag %q", c.bench)
		}
		met := run(t, s, spec, machine.Config{Procs: 8, Seed: 1})
		got := [4]int64{met.Steps, met.Steals, met.MaxLiveThreads, met.HeapHW}
		if want := [4]int64{c.steps, c.steals, c.maxLive, c.heapHW}; got != want {
			t.Errorf("%s %s K=%d: (steps, steals, max live, heap hw) = %v, want %v",
				c.bench, c.variant, c.k, got, want)
		}
	}
}
