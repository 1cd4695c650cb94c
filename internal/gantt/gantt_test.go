package gantt

import (
	"strings"
	"testing"

	"dfdeques/internal/dag"
	"dfdeques/internal/machine"
)

func TestSyntheticTimeline(t *testing.T) {
	b := NewBuilder(2)
	b.Event(0, 0, "steal", 1)
	b.Event(10, 0, "terminate", 1)
	b.Event(3, 1, "steal", 2)
	b.Event(7, 1, "suspend", 2)
	b.Event(8, 1, "resume", 3)
	b.Event(12, 1, "terminate", 3)
	b.Finish()
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
	b := NewBuilder(1)
	b.Event(5, 0, "steal", 7)
	b.Event(5, 0, "terminate", 7) // same-step steal+terminate
	b.Finish()
	if got := b.Busy(0); got != 1 {
		t.Errorf("busy = %d, want 1", got)
	}
}

func TestIgnoresUnknownProcsAndKinds(t *testing.T) {
	b := NewBuilder(1)
	b.Event(0, 5, "steal", 1) // out of range: ignored
	b.Event(0, 0, "fork", 1)  // non-transition kind: ignored
	b.Finish()
	if b.Busy(0) != 0 {
		t.Error("unexpected occupancy")
	}
}

func TestFinishClosesOpenSegments(t *testing.T) {
	b := NewBuilder(1)
	b.Event(0, 0, "steal", 1)
	b.Event(9, 0, "fork", 1) // advances the clock only
	b.Finish()
	if got := b.Busy(0); got != 10 {
		t.Errorf("busy = %d, want 10", got)
	}
}

// TestEmptySchedule: a builder that saw no events must still render a
// well-formed chart — all-idle rows, zero busy time, no panics.
func TestEmptySchedule(t *testing.T) {
	b := NewBuilder(2)
	b.Finish()
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
	b := NewBuilder(1)
	b.Event(0, 0, "steal", 1)
	b.Event(20, 0, "terminate", 1)
	b.Finish()
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
	b := NewBuilder(1)
	b.Event(0, 0, "steal", 1)
	b.Event(500, 0, "terminate", 1) // busy 0..499
	b.Event(900, 0, "steal", 2)
	b.Event(1000, 0, "terminate", 2) // busy 900..999
	b.Finish()
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

// TestEndToEndWithMachine wires the builder into a real simulation and
// sanity-checks the reconstructed occupancy against the metrics.
func TestEndToEndWithMachine(t *testing.T) {
	spec := dag.ParFor("loop", 32, func(int) *dag.ThreadSpec {
		return dag.NewThread("leaf").Work(20).Spec()
	})
	const procs = 4
	b := NewBuilder(procs)
	cfg := machine.Config{Procs: procs, Seed: 1, Scheduler: "DFD-inf", Observer: b.Event}
	m := machine.New(cfg)
	met, err := m.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b.Finish()
	var busy int64
	for p := 0; p < procs; p++ {
		busy += b.Busy(p)
	}
	// Reconstructed busy time must cover at least the executed actions
	// (it may exceed them slightly: a terminate and the next resume can
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
