package grt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"dfdeques/internal/rtrace"
)

// TestOneWorkerTraceIsPinned replays two one-worker DFDeques runs and
// compares their event streams — kind, lane and the A/B/C payloads, in
// sequence order, timestamps left out — with the streams in testdata: the
// quota chain with two dummy trees, and a fork tree whose nodes allocate
// past K. On one worker the stream is a pure function of the program, so
// any change to which deque a steal takes, which IDs the pool draws or
// which records it emits shows here line by line. A change that means to
// move the stream rewrites the files and says why. The worker's records
// before its first steal and its idle hunt after the last retirement are
// left out: it may start hunting before the root is published, or after,
// and hunts until the run shuts it down.
func TestOneWorkerTraceIsPinned(t *testing.T) {
	for _, tc := range pinnedRuns {
		t.Run(tc.name, func(t *testing.T) {
			rec := rtrace.NewRecorder(1, 1<<16)
			if _, err := Run(Config{Workers: 1, Sched: DFDeques, K: chainK, Seed: 1, Probe: rec}, tc.body); err != nil {
				t.Fatal(err)
			}
			if rec.Dropped() != 0 {
				t.Fatalf("ring dropped %d events", rec.Dropped())
			}
			var got []string
			stole := false
			for _, e := range rec.Events() {
				stole = stole || e.Kind == rtrace.EvSteal
				if stole || e.W < 0 {
					got = append(got, fmt.Sprintf("%v %d %d %d %d", e.Kind, e.W, e.A, e.B, e.C))
				}
			}
			for n := len(got); n > 0 && (got[n-1] == "idle 0 0 0 0" || got[n-1] == "steal-attempt 0 -1 0 0"); n-- {
				got = got[:n-1]
			}
			raw, err := os.ReadFile(filepath.Join("testdata", "trace-"+tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d records, want %d", len(got), len(want))
			}
		})
	}
}

// allocTree forks a binary tree of depth d whose every node allocates
// chainLink bytes: with K below two of those, every other node gives up.
func allocTree(c *T, d int) {
	if d == 0 {
		return
	}
	c.Alloc(chainLink)
	h := c.Fork(func(l *T) { allocTree(l, d-1) })
	allocTree(c, d-1)
	c.Join(h)
	c.Free(chainLink)
}

// pinnedRuns are the programs whose one-worker streams testdata holds.
var pinnedRuns = []struct {
	name string
	body func(r *T)
}{
	{"chain", func(r *T) { quotaChain(r, 2*chainBigEvery, new(atomic.Int64), nil) }},
	{"tree", func(r *T) { allocTree(r, 5) }},
}

// TestTraceDequeHighWaterIsThePools reads the deque high-water three ways
// off one run — the live Counters, Summarize over the recorded stream, and
// the peak of the exported "deques" track — and each must equal the
// pool's own Stats.MaxDeques. A steal that drains an unowned victim
// records its new deque before the victim's retirement; R never holds
// both, and a consumer that counted the record as it came read one too
// many: 2 for the plain chain's 1 on one worker, and now and then on
// the other runs.
func TestTraceDequeHighWaterIsThePools(t *testing.T) {
	runs := append([]struct {
		name string
		body func(r *T)
	}{{"plain-chain", func(r *T) { quotaChain(r, chainBigEvery-1, new(atomic.Int64), nil) }}}, pinnedRuns...)
	for _, workers := range []int{1, 2, 4} {
		for _, tc := range runs {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, workers), func(t *testing.T) {
				rec := rtrace.NewRecorder(workers, 1<<17)
				ctr := rtrace.NewCounters()
				st, err := Run(Config{Workers: workers, Sched: DFDeques, K: chainK, Seed: 1, Probe: rtrace.Tee(rec, ctr)}, tc.body)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Dropped() != 0 {
					t.Fatalf("ring dropped %d events", rec.Dropped())
				}
				var buf bytes.Buffer
				if err := rtrace.Export(&buf, rec.Meta(), rec.Events(), 0); err != nil {
					t.Fatal(err)
				}
				var file struct {
					TraceEvents []struct {
						Name string `json:"name"`
						Ph   string `json:"ph"`
						Args struct {
							Deques int64 `json:"deques"`
						} `json:"args"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
					t.Fatal(err)
				}
				var track int64
				for _, e := range file.TraceEvents {
					if e.Ph == "C" && e.Name == "deques" {
						track = max(track, e.Args.Deques)
					}
				}
				got := map[string]int64{
					"Counters":  int64(ctr.LiveSummary().DequeHighWater),
					"Summarize": int64(rtrace.Summarize(rec.Meta(), rec.Events(), 0).DequeHighWater),
					"Export":    track,
				}
				for src, hw := range got {
					if hw != st.MaxDeques {
						t.Errorf("%s high-water = %d, pool's MaxDeques = %d", src, hw, st.MaxDeques)
					}
				}
			})
		}
	}
}
