package rtrace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRecorderMergeOrder(t *testing.T) {
	r := NewRecorder(3, 64)
	// Interleave lanes; Seq is global, so the merge must come back sorted.
	r.Event(-1, EvDequeCreate, 1, -1, 0)
	r.Event(0, EvDispatch, 1, SrcAcquire, 0)
	r.Event(2, EvStealAttempt, -1, 0, 0)
	r.Event(0, EvFork, 1, 2, 0)
	r.Event(1, EvStealAttempt, 1, 0, 0)
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("merged %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, e.Seq, i+1)
		}
	}
	if evs[0].Kind != EvDequeCreate || evs[0].W != -1 {
		t.Fatalf("first event = %v, want the pre-run deque-create", evs[0])
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestRecorderRingWrapDrops(t *testing.T) {
	r := NewRecorder(1, 8) // lane capacity 8
	for i := 0; i < 20; i++ {
		r.Event(0, EvAlloc, 1, int64(i), 0)
	}
	if got := r.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	// The ring keeps the newest records.
	if evs[len(evs)-1].B != 19 {
		t.Fatalf("newest retained payload = %d, want 19", evs[len(evs)-1].B)
	}
	// A wrapped stream must be refused by the verifier.
	if _, err := Verify(Meta{Policy: "DFDeques", Workers: 1, Engine: EngineCont}, evs, r.Dropped()); err == nil {
		t.Fatal("Verify accepted a stream with ring drops")
	}
}

func TestRecorderCapacityRounding(t *testing.T) {
	r := NewRecorder(2, 100) // rounds to 128
	if got := len(r.lanes); got != 3 {
		t.Fatalf("lanes = %d, want 3 (2 workers + pre-run)", got)
	}
	for _, ln := range r.lanes {
		if len(ln.buf) != 128 {
			t.Fatalf("lane capacity = %d, want 128", len(ln.buf))
		}
	}
}

// TestExportChromeSchema checks the trace_event contract Perfetto and
// chrome://tracing rely on: every entry has name/ph/ts/pid/tid, phases are
// ones we emit deliberately, and X slices carry durations.
func TestExportChromeSchema(t *testing.T) {
	meta := Meta{Policy: "DFDeques", Workers: 2, K: 128, Seed: 7}
	r := NewRecorder(2, 64)
	r.SetMeta(meta)
	r.Event(-1, EvDequeCreate, 1, -1, 0)
	r.Event(-1, EvPush, 1, 1, 0)
	r.Event(0, EvStealAttempt, 1, 0, 0)
	r.Event(0, EvSteal, 1, 1, 2)
	r.Event(0, EvDequeRetire, 1, 0, 0)
	r.Event(0, EvDispatch, 1, SrcAcquire, 0)
	r.Event(0, EvFork, 1, 2, 1)
	r.Event(0, EvAllocExempt, 1, 300, 3)
	r.Event(0, EvAlloc, 1, 64, 0)
	r.Event(0, EvFree, 1, 64, 0)
	r.Event(0, EvComplete, 1, 0, 0)

	var buf bytes.Buffer
	if err := Export(&buf, meta, r.Events(), 0); err != nil {
		t.Fatalf("Export: %v", err)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DfdMeta     Meta             `json:"dfdMeta"`
		DfdEvents   [][7]int64       `json:"dfdEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents emitted")
	}
	sawX := false
	for i, e := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("traceEvents[%d] missing %q: %v", i, key, e)
			}
		}
		ph, _ := e["ph"].(string)
		switch ph {
		case "M", "i", "C":
		case "X":
			sawX = true
			if _, ok := e["dur"]; !ok {
				t.Fatalf("X slice without dur: %v", e)
			}
		default:
			t.Fatalf("unexpected phase %q in %v", ph, e)
		}
	}
	if !sawX {
		t.Fatal("no execution slices (ph=X) emitted")
	}
	if doc.DfdMeta != meta {
		t.Fatalf("dfdMeta = %+v, want %+v", doc.DfdMeta, meta)
	}
	if len(doc.DfdEvents) != r.Len() {
		t.Fatalf("dfdEvents carries %d records, want %d", len(doc.DfdEvents), r.Len())
	}
}

func TestExportLoadRoundTrip(t *testing.T) {
	meta := Meta{Policy: "DFDeques", Workers: 3, K: 0, Seed: 42}
	r := NewRecorder(3, 64)
	r.Event(-1, EvPush, 1, 0, 0)
	r.Event(1, EvStealAttempt, 0, 0, 0)
	r.Event(1, EvSteal, 1, 0, 1)
	r.Event(1, EvDispatch, 1, SrcAcquire, 0)
	r.Event(1, EvComplete, 1, 0, 0)
	want := r.Events()

	var buf bytes.Buffer
	if err := Export(&buf, meta, want, 0); err != nil {
		t.Fatalf("Export: %v", err)
	}
	gotMeta, got, dropped, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if gotMeta != meta || dropped != 0 {
		t.Fatalf("Load meta = %+v dropped=%d", gotMeta, dropped)
	}
	if len(got) != len(want) {
		t.Fatalf("Load returned %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d round-tripped to %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLoadRejectsForeignJSON(t *testing.T) {
	if _, _, _, err := Load(bytes.NewReader([]byte(`{"traceEvents":[]}`))); err == nil {
		t.Fatal("Load accepted a trace file without dfdMeta")
	}
	if _, _, _, err := Load(bytes.NewReader([]byte(`not json`))); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestSummarizeCounts(t *testing.T) {
	meta := Meta{Policy: "DFDeques", Workers: 1, K: 128}
	r := NewRecorder(1, 64)
	r.Event(-1, EvJobBegin, 1, 1, 0)
	r.Event(-1, EvDequeCreate, 1, -1, 0)
	r.Event(-1, EvPush, 1, 1, 0)
	r.Event(0, EvStealAttempt, 1, 0, 0)
	r.Event(0, EvSteal, 1, 1, 2)
	r.Event(0, EvDequeRetire, 1, 0, 0)
	r.Event(0, EvDispatch, 1, SrcAcquire, 0)
	r.Event(0, EvFork, 1, 2, 0)
	r.Event(0, EvDispatch, 2, SrcInline, 0)
	r.Event(0, EvComplete, 2, 0, 0)
	r.Event(0, EvPop, 1, 2, 0)
	r.Event(0, EvDispatch, 1, SrcNext, 0)
	r.Event(0, EvComplete, 1, 0, 0)
	s := Summarize(meta, r.Events(), 0)
	if s.Threads != 2 { // root + one fork
		t.Fatalf("Threads = %d, want 2", s.Threads)
	}
	if s.Dispatches != 3 || s.Steals != 1 || s.StealAttempts != 1 || s.LocalDispatches != 1 {
		t.Fatalf("dispatches=%d steals=%d attempts=%d local=%d",
			s.Dispatches, s.Steals, s.StealAttempts, s.LocalDispatches)
	}
	if s.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", s.Completed)
	}
	if s.StealSuccessRate != 1.0 {
		t.Fatalf("StealSuccessRate = %v, want 1", s.StealSuccessRate)
	}
	if s.SchedGranularity != 3.0 {
		t.Fatalf("SchedGranularity = %v, want 3", s.SchedGranularity)
	}
	// The steal drains the unowned root deque: its new deque takes the
	// victim's place in the same spine section, so R never held two.
	if s.DequeHighWater != 1 {
		t.Fatalf("DequeHighWater = %d, want 1", s.DequeHighWater)
	}
}
