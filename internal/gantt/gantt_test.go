package gantt

import (
	"strings"
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
	"dfdeques/internal/rtrace"
)

// rec is a record of kind k about thread tid on processor proc at step.
func rec(step int64, proc int32, k rtrace.Kind, tid int64) rtrace.Event {
	return rtrace.Event{TS: step, W: proc, Kind: k, A: tid}
}

func TestSyntheticTimeline(t *testing.T) {
	b := Build(2, []rtrace.Event{
		rec(0, 0, rtrace.EvDispatch, 1),
		rec(10, 0, rtrace.EvComplete, 1),
		rec(3, 1, rtrace.EvDispatch, 2),
		rec(7, 1, rtrace.EvBlock, 2),
		rec(8, 1, rtrace.EvDispatch, 3),
		rec(12, 1, rtrace.EvComplete, 3),
	})
	if got := b.Busy(0); got != 10 {
		t.Errorf("P0 busy = %d, want 10", got)
	}
	if got := b.Busy(1); got != 8 { // 4 + 4
		t.Errorf("P1 busy = %d, want 8", got)
	}
	out := b.Render(13)
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P1") {
		t.Fatalf("render missing rows:\n%s", out)
	}
	// Width ≥ span: one column per step. P0 runs thread 1 for steps 0-9.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "1111111111") {
		t.Errorf("P0 row wrong: %q", lines[1])
	}
	// Thread 2 occupies steps 3–6, step 7 is idle (suspended at 7, next
	// resume at 8), thread 3 occupies steps 8–11.
	if !strings.Contains(lines[2], "...2222.3333") {
		t.Errorf("P1 row wrong: %q", lines[2])
	}
}

func TestZeroLengthSegmentsGetOneStep(t *testing.T) {
	b := Build(1, []rtrace.Event{
		rec(5, 0, rtrace.EvDispatch, 7),
		rec(5, 0, rtrace.EvComplete, 7), // same-step dispatch+complete
	})
	if got := b.Busy(0); got != 1 {
		t.Errorf("busy = %d, want 1", got)
	}
}

func TestIgnoresUnknownProcsAndKinds(t *testing.T) {
	b := Build(1, []rtrace.Event{
		rec(0, 5, rtrace.EvDispatch, 1), // out of range: ignored
		rec(0, 0, rtrace.EvFork, 1),     // non-transition kind: ignored
	})
	if b.Busy(0) != 0 {
		t.Error("unexpected occupancy")
	}
}

func TestFinishClosesOpenSegments(t *testing.T) {
	b := Build(1, []rtrace.Event{
		rec(0, 0, rtrace.EvDispatch, 1),
		rec(9, 0, rtrace.EvFork, 1), // advances the clock only
	})
	if got := b.Busy(0); got != 10 {
		t.Errorf("busy = %d, want 10", got)
	}
}

// TestEmptySchedule: a builder that saw no events must still render a
// well-formed chart — all-idle rows, zero busy time, no panics.
func TestEmptySchedule(t *testing.T) {
	b := Build(2, nil)
	for p := 0; p < 2; p++ {
		if got := b.Busy(p); got != 0 {
			t.Errorf("P%d busy = %d, want 0", p, got)
		}
	}
	out := b.Render(20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + one row per proc
		t.Fatalf("render produced %d lines, want 3:\n%s", len(lines), out)
	}
	for _, line := range lines[1:] {
		if strings.ContainsAny(line, glyphs) {
			// Busy-count suffix aside, the timeline cells must all be idle.
			cells := strings.TrimSuffix(strings.Fields(line)[1], "")
			if strings.Trim(cells, ".") != "" {
				t.Errorf("empty schedule rendered occupancy: %q", line)
			}
		}
	}
}

// TestRenderWidthClamp: zero or one-column widths clamp to the 10-column
// minimum instead of dividing by zero or emitting unreadable charts.
func TestRenderWidthClamp(t *testing.T) {
	b := Build(1, []rtrace.Event{
		rec(0, 0, rtrace.EvDispatch, 1),
		rec(20, 0, rtrace.EvComplete, 1),
	})
	want := b.Render(10)
	for _, width := range []int{0, 1, -3} {
		if got := b.Render(width); got != want {
			t.Errorf("Render(%d) differs from the clamped Render(10):\n%s\nvs\n%s", width, got, want)
		}
	}
	// And the clamped chart still shows the whole 21-step run.
	row := strings.Fields(strings.Split(want, "\n")[1])[1]
	if strings.Trim(row, "1") != "" {
		t.Errorf("row should be solid thread-1 occupancy: %q", row)
	}
}

// TestRenderLongRunBins: a run much longer than the chart width is
// binned, never truncated — the full span stays visible and occupancy
// lands in the right bins.
func TestRenderLongRunBins(t *testing.T) {
	b := Build(1, []rtrace.Event{
		rec(0, 0, rtrace.EvDispatch, 1),
		rec(500, 0, rtrace.EvComplete, 1), // busy 0..499
		rec(900, 0, rtrace.EvDispatch, 2),
		rec(1000, 0, rtrace.EvComplete, 2), // busy 900..999
	})
	out := b.Render(10)
	if !strings.Contains(out, "time 0 .. 1000") {
		t.Fatalf("header lost the span:\n%s", out)
	}
	row := strings.Fields(strings.Split(out, "\n")[1])[1]
	if len(row) != 10 {
		t.Fatalf("row has %d bins, want 10: %q", len(row), row)
	}
	// 1001 steps in 10 columns: ~101 steps per bin. The first five bins
	// cover the thread-1 segment, the tail bin the thread-2 segment.
	if row[0] != '1' || row[4] != '1' {
		t.Errorf("thread 1 missing from its bins: %q", row)
	}
	if row[9] != '2' {
		t.Errorf("thread 2 missing from the final bin: %q", row)
	}
	if row[6] != '.' {
		t.Errorf("idle gap not rendered: %q", row)
	}
}

// TestEndToEndWithMachine builds the chart from a recorded simulation and
// sanity-checks the reconstructed occupancy against the metrics.
func TestEndToEndWithMachine(t *testing.T) {
	spec := dag.ParFor("loop", 32, func(int) *dag.ThreadSpec {
		return dag.NewThread("leaf").Work(20).Spec()
	})
	const procs = 4
	m := machine.New(machine.Config{Procs: procs, Seed: 1, Scheduler: "DFD-inf", Record: true})
	met, err := m.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, evs := m.Stream()
	b := Build(procs, evs)
	var busy int64
	for p := 0; p < procs; p++ {
		busy += b.Busy(p)
	}
	// Reconstructed busy time must cover at least the executed actions
	// (it may exceed them slightly: a complete and the next dispatch can
	// share a timestep) and never exceed procs × makespan.
	if busy < met.Actions {
		t.Errorf("busy %d below actions %d", busy, met.Actions)
	}
	if busy > int64(procs)*(met.Steps+1) {
		t.Errorf("busy %d exceeds machine capacity %d", busy, int64(procs)*met.Steps)
	}
	out := b.Render(60)
	if strings.Count(out, "\n") != procs+1 {
		t.Errorf("render rows wrong:\n%s", out)
	}
}
