package machine_test

import (
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
	"dfdeques/internal/rtrace"
)

// FuzzScheduleConservation decodes arbitrary bytes into a nested-parallel
// program and a machine configuration, runs it under every scheduler, and
// checks the conservation laws: exact action and thread counts, balanced
// heap, clean termination, and a recorded stream that replay-verifies
// (rtrace.Verify, Lemma 3.1 ordering exact). Anything else is a scheduler
// or interpreter bug.
func FuzzScheduleConservation(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(1), uint8(4), uint8(0))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3}, int64(9), uint8(1), uint8(1))
	f.Add([]byte{0, 0, 0, 255, 255, 255}, int64(42), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, program []byte, seed int64, procs uint8, pick uint8) {
		if len(program) > 256 {
			program = program[:256]
		}
		spec := decodeProgram(program)
		want := dag.Measure(spec)
		if want.W > 200_000 {
			t.Skip("program too large")
		}
		name := []string{"DFD-inf", "ADF", "FIFO"}[pick%3]
		p := int(procs%8) + 1
		// MaxSteps bounds a livelock's recorded stream (see recordRun).
		m := machine.New(machine.Config{Procs: p, Seed: seed, MaxSteps: 4*want.W + 1000, Scheduler: name, Record: true})
		met, err := m.Run(spec)
		if err != nil {
			t.Fatalf("%s p=%d: %v", name, p, err)
		}
		if met.Actions != want.W {
			t.Fatalf("%s: actions %d != W %d", name, met.Actions, want.W)
		}
		if met.TotalThreads != want.TotalThreads {
			t.Fatalf("%s: threads %d != %d", name, met.TotalThreads, want.TotalThreads)
		}
		if m.HeapLive() != want.HeapEnd {
			t.Fatalf("%s: heap imbalance %d != %d", name, m.HeapLive(), want.HeapEnd)
		}
		meta, evs := m.Stream()
		if rep, err := rtrace.Verify(meta, evs, 0); err != nil || !rep.OrderingExact {
			t.Fatalf("%s p=%d: replay: %v %v", name, p, err, rep.Notes)
		}
	})
}

// decodeProgram turns a byte string into a valid nested-parallel spec: a
// little stack machine where bytes push work/alloc instructions or
// fork-join subtrees. Always produces a Validate-clean program.
func decodeProgram(bs []byte) *dag.ThreadSpec {
	var build func(depth int) *dag.ThreadSpec
	idx := 0
	next := func() byte {
		if idx >= len(bs) {
			return 0
		}
		b := bs[idx]
		idx++
		return b
	}
	build = func(depth int) *dag.ThreadSpec {
		b := dag.NewThread("fz")
		steps := int(next()%5) + 1
		for s := 0; s < steps; s++ {
			op := next()
			switch {
			case op < 100:
				b.Work(int64(op%13) + 1)
			case op < 170:
				sz := int64(op) * 3
				b.Alloc(sz).Work(int64(op%5) + 1).Free(sz)
			case depth < 4:
				child := build(depth + 1)
				if op%2 == 0 {
					b.ForkJoin(child)
				} else {
					b.Fork(child).Work(int64(op%7) + 1).Join()
				}
			default:
				b.Work(1)
			}
		}
		return b.Spec()
	}
	return build(0)
}
