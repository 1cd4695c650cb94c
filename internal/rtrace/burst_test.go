package rtrace

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// allKinds is every kind a probe may be handed: the stream kinds and the
// bursts.
const allKinds = numKinds + numBursts

// sortedExpansion is Events' reference: every retained slot of every
// lane, sorted by Seq, each then expanded.
func sortedExpansion(r *Recorder) []Event {
	var slots []Event
	for i := range r.lanes {
		ln := &r.lanes[i]
		from, to := ln.retained()
		for j := from; j < to; j++ {
			slots = append(slots, ln.buf[j&uint64(len(ln.buf)-1)])
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].Seq < slots[j].Seq })
	var out []Event
	for _, e := range slots {
		out = Expand(out, e)
	}
	return out
}

// writeOps drives a recorder of p workers from ops, three bytes a write:
// the lane (-1 to p-1), the kind (bursts included) and a payload seed.
func writeOps(r *Recorder, p int, ops []byte) {
	for ; len(ops) >= 3; ops = ops[3:] {
		w := int(ops[0])%(p+1) - 1
		x := int64(ops[2])
		r.Event(w, Kind(ops[1])%allKinds, x, x+1, x+2)
	}
}

// checkMerge compares r's Events against the reference sort, and Len and
// Dropped against what the writes left in the rings.
func checkMerge(t *testing.T, r *Recorder, writes int) {
	t.Helper()
	got, want := r.Events(), sortedExpansion(r)
	if len(got) != len(want) || len(got) != r.Len() {
		t.Fatalf("Events holds %d records, the reference %d, Len says %d", len(got), len(want), r.Len())
	}
	if len(got) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("Events differs from the sorted expansion:\n got %v\nwant %v", got, want)
	}
	var kept uint64
	for i := range r.lanes {
		from, to := r.lanes[i].retained()
		kept += to - from
	}
	if d := r.Dropped(); d+kept != uint64(writes) {
		t.Fatalf("Dropped = %d and %d slots kept, after %d writes", d, kept, writes)
	}
	if r.Dropped() == 0 {
		// Nothing lost: the Seqs are 1..n with no gap.
		for i, e := range got {
			if e.Seq != uint64(i+1) {
				t.Fatalf("record %d has Seq %d with nothing dropped", i, e.Seq)
			}
		}
	}
}

// TestRecorderMergeMatchesSort writes random plain and burst records
// across the lanes of recorders small enough to wrap, and large enough
// not to, and requires Events — a merge of the lanes — to equal a sort of
// every retained slot by Seq, expanded.
func TestRecorderMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []int{1, 2, 4, 7} {
		for _, capacity := range []int{1, 4, 16, 1024} {
			for round := 0; round < 20; round++ {
				r := NewRecorder(p, capacity)
				ops := make([]byte, 3*rng.Intn(600))
				rng.Read(ops)
				writeOps(r, p, ops)
				checkMerge(t, r, len(ops)/3)
			}
		}
	}
}

// FuzzRecorderExpand is TestRecorderMergeMatchesSort with the writes, the
// worker count and the ring size drawn by the fuzzer.
func FuzzRecorderExpand(f *testing.F) {
	f.Add(uint8(2), uint8(2), []byte{0, 0, 1, 1, 25, 2, 2, 27, 3, 0, 30, 4, 1, 11, 5})
	f.Add(uint8(1), uint8(0), []byte{1, 26, 9, 1, 28, 9, 0, 19, 1, 1, 29, 3})
	// Every give-up and steal burst, with tails of 0 to 7 attempts and a
	// burst of misses of 1 and 256.
	f.Add(uint8(3), uint8(3), []byte{1, 28, 6, 2, 29, 7, 3, 30, 0, 1, 31, 1, 2, 32, 2,
		3, 33, 253, 1, 33, 254, 2, 34, 3, 3, 35, 4, 1, 36, 5, 2, 37, 6, 0, 28, 14})
	f.Fuzz(func(t *testing.T, p, ringLog uint8, ops []byte) {
		procs := 1 + int(p)%8
		r := NewRecorder(procs, 1<<(ringLog%7))
		writeOps(r, procs, ops)
		checkMerge(t, r, len(ops)/3)
	})
}

// TestBurstsExpandToStreamKinds: every burst expands to stream records
// (never to a burst) with consecutive Seqs and its lane and timestamp —
// at most maxBurst of them ahead of its tail, then the tail's failed
// attempts, C&tail of them, for every tail length — and records agrees;
// a burst reads the clock iff one of its records would, but for the
// give-up's steal bursts, which take the stamp of the lead burst written
// in the same section; and every kind has a name.
func TestBurstsExpandToStreamKinds(t *testing.T) {
	unclocked := map[Kind]bool{BurstGiveUpSteal: true, BurstGiveUpTakeover: true}
	for k := Kind(0); k < allKinds; k++ {
		if k.String() == "" || k.String()[0] == 'k' {
			t.Errorf("kind %d has no name: %q", k, k.String())
		}
		fixed := int(width[k])
		for n := 0; n <= int(tail[k]); n++ {
			e := Event{Seq: 10, TS: 77, Kind: k, W: 3, A: 5, B: 6, C: 9<<8 | int64(n)}
			recs := Expand(nil, e)
			if int(records(k, e.C)) != len(recs) || len(recs) != fixed+n {
				t.Errorf("%v, tail %d: records says %d, Expand gives %d, want %d", k, n, records(k, e.C), len(recs), fixed+n)
				continue
			}
			if k < numKinds {
				if len(recs) != 1 || recs[0] != e {
					t.Errorf("%v: a stream kind expands to %v", k, recs)
				}
				continue
			}
			if fixed > maxBurst || fixed+n < 2 && tail[k] == 0 {
				t.Errorf("%v expands to %d records ahead of its tail, want 2 to %d (1 with a tail)", k, fixed, maxBurst)
			}
			anyExact := false
			for i, x := range recs {
				if x.Kind >= numKinds || x.Seq != e.Seq+uint64(i) || x.W != e.W || x.TS != e.TS {
					t.Errorf("%v: record %d is %v", k, i, x)
				}
				if i >= fixed && (x.Kind != EvStealAttempt || x.A != -1) {
					t.Errorf("%v: tail record %d is %v, want a failed steal attempt", k, i, x)
				}
				anyExact = anyExact || x.Kind.ReadsClock()
			}
			if want := anyExact && !unclocked[k]; k.ReadsClock() != want {
				t.Errorf("%v reads the clock: %v, want %v", k, k.ReadsClock(), want)
			}
		}
	}
}

// TestEventHotPathsAllocateNothing: the recorder and the live counters
// take every kind, bursts included, with an empty tail and a full one,
// without an allocation.
func TestEventHotPathsAllocateNothing(t *testing.T) {
	r := NewRecorder(2, 64)
	c := NewCounters()
	for k := Kind(0); k < allKinds; k++ {
		for _, cc := range []int64{3 << 8, 3<<8 | int64(tail[k])} {
			if n := testing.AllocsPerRun(100, func() { r.Event(1, k, 1, 2, cc) }); n != 0 {
				t.Errorf("Recorder.Event(%v, C = %#x) allocates %.1f times", k, cc, n)
			}
			if n := testing.AllocsPerRun(100, func() { c.Event(1, k, 1, 2, cc) }); n != 0 {
				t.Errorf("Counters.Event(%v, C = %#x) allocates %.1f times", k, cc, n)
			}
		}
	}
}
