package machine_test

import (
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
	"dfdeques/internal/workload"
)

// TestSimulatorSchedulesArePinned pins the simulator's schedules exactly:
// every lock-free benchmark dag (fine grain) under DFD (K = 3000, dfdsim's
// default) and DFD-inf, plain and under each ablation switch, then under
// ADF and FIFO, and all four under machine.Realism, at p = 8 and seed 1
// ("WS" is DFD-inf, so it has no rows of its own). The experiment tables
// all read these schedules, so a change to the pool, the quota or the
// steal arbitration that moves one of them must update this table on
// purpose and re-record the tables.
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
		spec, ok := dags[c.bench]
		if !ok {
			t.Fatalf("no dag %q", c.bench)
		}
		met := run(t, spec, machine.Config{
			Procs: 8, Seed: 1, Scheduler: "DFD", K: c.k,
			StealFromTop: c.variant == "top", FullWindow: c.variant == "full",
		})
		got := [4]int64{met.Steps, met.Steals, met.MaxLiveThreads, met.HeapHW}
		if want := [4]int64{c.steps, c.steals, c.maxLive, c.heapHW}; got != want {
			t.Errorf("%s %s K=%d: (steps, steals, max live, heap hw) = %v, want %v",
				c.bench, c.variant, c.k, got, want)
		}
	}
	// The two queue schedulers at K = 3000 in the pure model, and all four
	// under machine.Realism: the one configuration where the global-queue
	// stalls (QueueLatency) and the steal latency move the schedule.
	for _, c := range []struct {
		bench, sched string
		realism      bool

		steps, steals, maxLive, heapHW int64
	}{
		{"Vol. Rend.", "ADF", false, 9538, 511, 58, 0},
		{"Vol. Rend.", "FIFO", false, 9518, 766, 414, 0},
		{"Dense MM", "ADF", false, 19394, 1671, 82, 237568},
		{"Dense MM", "FIFO", false, 18694, 1680, 887, 917504},
		{"Sparse MVM", "ADF", false, 9885, 1023, 69, 0},
		{"Sparse MVM", "FIFO", false, 9783, 1534, 822, 0},
		{"FFTW", "ADF", false, 8618, 472, 53, 10112},
		{"FFTW", "FIFO", false, 7960, 723, 233, 14336},
		{"FMM", "ADF", false, 73967, 9556, 141, 105792},
		{"FMM", "FIFO", false, 73606, 15016, 7719, 3277632},
		{"Decision Tr.", "ADF", false, 11964, 2238, 61, 1176352},
		{"Decision Tr.", "FIFO", false, 11730, 1231, 117, 1492880},
		{"synthetic", "ADF", false, 59372, 66839, 281, 1452643},
		{"synthetic", "FIFO", false, 59111, 98304, 42176, 3980580},
		{"lowerbound", "ADF", false, 228, 306, 37, 720000},
		{"lowerbound", "FIFO", false, 190, 193, 10, 720000},
		{"Vol. Rend.", "DFD", true, 42773, 98, 53, 0},
		{"Vol. Rend.", "DFD-inf", true, 42773, 98, 53, 0},
		{"Vol. Rend.", "ADF", true, 128589, 511, 53, 0},
		{"Vol. Rend.", "FIFO", true, 108466, 767, 461, 0},
		{"Dense MM", "DFD", true, 198830, 1458, 90, 278528},
		{"Dense MM", "DFD-inf", true, 157235, 108, 76, 458752},
		{"Dense MM", "ADF", true, 206041, 1671, 74, 229376},
		{"Dense MM", "FIFO", true, 205392, 1683, 979, 917504},
		{"Sparse MVM", "DFD", true, 85858, 98, 62, 0},
		{"Sparse MVM", "DFD-inf", true, 85858, 98, 62, 0},
		{"Sparse MVM", "ADF", true, 99515, 1023, 63, 0},
		{"Sparse MVM", "FIFO", true, 104726, 1535, 913, 0},
		{"FFTW", "DFD", true, 91276, 122, 45, 9536},
		{"FFTW", "DFD-inf", true, 89219, 126, 45, 9600},
		{"FFTW", "ADF", true, 111259, 472, 47, 9664},
		{"FFTW", "FIFO", true, 101160, 723, 226, 14336},
		{"FMM", "DFD", true, 631011, 6866, 171, 101056},
		{"FMM", "DFD-inf", true, 536756, 199, 122, 89728},
		{"FMM", "ADF", true, 706260, 9556, 138, 100992},
		{"FMM", "FIFO", true, 744515, 15018, 8675, 3277664},
		{"Decision Tr.", "DFD", true, 107475, 2036, 86, 1275920},
		{"Decision Tr.", "DFD-inf", true, 94267, 256, 50, 1310560},
		{"Decision Tr.", "ADF", true, 108533, 2238, 57, 1153024},
		{"Decision Tr.", "FIFO", true, 119046, 1235, 135, 1564992},
		{"synthetic", "DFD", true, 184878, 4345, 148, 1337024},
		{"synthetic", "DFD-inf", true, 540764, 120, 111, 1487908},
		{"synthetic", "ADF", true, 196103, 66839, 220, 1381174},
		{"synthetic", "FIFO", true, 623847, 98304, 45116, 4018240},
		{"lowerbound", "DFD", true, 805, 303, 38, 540000},
		{"lowerbound", "DFD-inf", true, 391, 80, 10, 540000},
		{"lowerbound", "ADF", true, 695, 306, 36, 540000},
		{"lowerbound", "FIFO", true, 415, 193, 12, 540000},
	} {
		cfg := machine.Config{Procs: 8, Seed: 1}
		if c.realism {
			cfg = machine.Realism(8, 1)
		}
		cfg.Scheduler, cfg.K = c.sched, 3000
		met := run(t, dags[c.bench], cfg)
		got := [4]int64{met.Steps, met.Steals, met.MaxLiveThreads, met.HeapHW}
		if want := [4]int64{c.steps, c.steals, c.maxLive, c.heapHW}; got != want {
			t.Errorf("%s %s realism=%v: (steps, steals, max live, heap hw) = %v, want %v",
				c.bench, c.sched, c.realism, got, want)
		}
	}
}
