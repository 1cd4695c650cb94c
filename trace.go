package dfdeques

import (
	"io"

	"dfdeques/internal/rtrace"
)

// The public tracing surface: record a real run's scheduling events
// through RuntimeConfig.Probe, then export the stream as Chrome
// trace_event JSON, summarize it, or replay-verify it against an
// independent model of the paper's scheduler. The cmd/dfdtrace tool wraps
// the same machinery for files on disk.

// TraceProbe receives the runtime's scheduling records; plug one into
// RuntimeConfig.Probe. A call is one record, or one burst: the records of
// one scheduling decision that no other worker can observe anything
// between (a fork and its push, an inline join, a preemption, a steal),
// which rtrace.Expand lays out as the records it stands for. The only
// production implementation is *TraceRecorder, which stores a burst in
// one slot and expands it when read; tests may supply their own, and
// pass what they are handed through rtrace.Expand.
type TraceProbe = rtrace.Probe

// TraceRecorder is a lock-free in-memory recorder of scheduling events,
// safe for concurrent use by all workers. Create one with
// NewTraceRecorder, run with it as RuntimeConfig.Probe, then pass it to
// ExportTrace, SummarizeTrace, or VerifyTrace.
type TraceRecorder = rtrace.Recorder

// TraceSummary is the compact per-run metrics report derived from a
// recorded stream (threads, jobs, dispatches, steals, per-worker busy
// fractions, ...).
type TraceSummary = rtrace.Summary

// TraceReport summarizes what a replay verification established: event
// and check counts, per-job outcomes, and whether the strict Lemma 3.1
// ordering checks stayed enabled end to end.
type TraceReport = rtrace.Report

// NewTraceRecorder builds a recorder for a runtime with the given worker
// count. perWorker is each worker's event-buffer capacity (rounded up to
// a power of two; 0 picks a default); if a buffer wraps, verification of
// the truncated stream is refused, so size generously for long runs.
func NewTraceRecorder(workers, perWorker int) *TraceRecorder {
	return rtrace.NewRecorder(workers, perWorker)
}

// ExportTrace writes the recorded run as Chrome trace_event JSON —
// loadable in chrome://tracing or Perfetto, with the raw event stream
// riding along so `dfdtrace -verify` can replay the same file.
func ExportTrace(w io.Writer, rec *TraceRecorder) error {
	return rtrace.Export(w, rec.Meta(), rec.Events(), rec.Dropped())
}

// SummarizeTrace derives the metrics summary from a recorded run.
func SummarizeTrace(rec *TraceRecorder) TraceSummary {
	return rtrace.Summarize(rec.Meta(), rec.Events(), rec.Dropped())
}

// VerifyTrace replays the recorded stream against an independent model of
// the scheduler, checking the paper's structural invariants (Lemma 3.1
// deque ordering, dispatch conservation, memory-quota accounting) on the
// real runtime's history. It returns an error describing the first
// violation, if any.
func VerifyTrace(rec *TraceRecorder) (TraceReport, error) {
	return rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped())
}

// VerifyTraceFile replays a trace file previously written by ExportTrace
// (or `dfdsim -real -trace`).
func VerifyTraceFile(r io.Reader) (TraceReport, error) {
	meta, evs, dropped, err := rtrace.Load(r)
	if err != nil {
		return TraceReport{}, err
	}
	return rtrace.Verify(meta, evs, dropped)
}
