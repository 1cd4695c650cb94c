// Package gantt reconstructs per-processor occupancy timelines from a
// recorded rtrace stream (the machine simulator's, whose TS is the
// timestep) and renders them as ASCII Gantt charts — a quick visual read
// on a schedule: who ran what, where the steals happened, how long
// processors idled.
package gantt

import (
	"fmt"
	"strings"

	"dfdeques/internal/rtrace"
)

// segment is a half-open [from, to) interval during which one thread
// occupied one processor.
type segment struct {
	from, to int64
	thread   int64
}

// Chart holds the reconstructed timelines of one run; Build makes one.
type Chart struct {
	open     []int64 // currently running thread per proc; -1 if idle
	openFrom []int64
	rows     [][]segment
	lastStep int64
}

// Build reconstructs the timelines of a run on p processors from its
// records, in stream order, closing the segments still open at the last
// step.
func Build(p int, evs []rtrace.Event) *Chart {
	b := &Chart{open: make([]int64, p), openFrom: make([]int64, p), rows: make([][]segment, p)}
	for i := range b.open {
		b.open[i] = -1
	}
	for _, e := range evs {
		b.event(e)
	}
	for p := range b.rows {
		b.close(p, b.lastStep+1)
	}
	return b
}

// event consumes one record, at time e.TS on processor e.W. A dispatch
// opens a segment for its thread; a complete, a block and a quota
// exhaustion close it; other kinds only advance the clock, and records
// off the processors (W = -1) are ignored.
func (b *Chart) event(e rtrace.Event) {
	proc, step := int(e.W), e.TS
	if proc < 0 || proc >= len(b.rows) {
		return
	}
	if step > b.lastStep {
		b.lastStep = step
	}
	switch e.Kind {
	case rtrace.EvDispatch:
		b.close(proc, step)
		b.open[proc] = e.A
		b.openFrom[proc] = step
	case rtrace.EvComplete, rtrace.EvBlock, rtrace.EvQuotaExhaust:
		b.close(proc, step)
	}
}

func (b *Chart) close(proc int, step int64) {
	if b.open[proc] < 0 {
		return
	}
	to := step
	if to <= b.openFrom[proc] {
		to = b.openFrom[proc] + 1 // at least the event's own timestep
	}
	b.rows[proc] = append(b.rows[proc], segment{b.openFrom[proc], to, b.open[proc]})
	b.open[proc] = -1
}

// Busy returns the total occupied timesteps of processor p.
func (b *Chart) Busy(p int) int64 {
	var n int64
	for _, s := range b.rows[p] {
		n += s.to - s.from
	}
	return n
}

// Render draws the timelines with the given chart width in characters.
// Each cell shows the thread occupying the processor at that time bin
// (digits cycle through thread IDs mod 62 as 0-9a-zA-Z), '.' for idle.
func (b *Chart) Render(width int) string {
	if width < 10 {
		width = 10
	}
	span := b.lastStep + 1
	if span < 1 {
		span = 1
	}
	binSize := (span + int64(width) - 1) / int64(width)
	if binSize < 1 {
		binSize = 1
	}
	bins := int((span + binSize - 1) / binSize)

	var sb strings.Builder
	fmt.Fprintf(&sb, "time 0 .. %d (each column = %d steps; '.' idle)\n", b.lastStep, binSize)
	for p := range b.rows {
		fmt.Fprintf(&sb, "P%-3d ", p)
		row := make([]byte, bins)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range b.rows[p] {
			lo := int(s.from / binSize)
			hi := int((s.to - 1) / binSize)
			for i := lo; i <= hi && i < bins; i++ {
				row[i] = glyph(s.thread)
			}
		}
		sb.Write(row)
		fmt.Fprintf(&sb, "  (busy %d)\n", b.Busy(p))
	}
	return sb.String()
}

const glyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

func glyph(id int64) byte {
	if id < 0 {
		return '?'
	}
	return glyphs[id%int64(len(glyphs))]
}
