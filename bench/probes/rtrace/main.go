// Command rtrace times internal/rtrace: the per-event cost of the
// recorder and of the always-on counters, alone and from every processor
// at once, and the three passes over a recorded stream. The stream itself
// has to come from a real run, so this probe also uses the public facade.
package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dfdeques"
	"dfdeques/bench/probes/timing"
	"dfdeques/internal/rtrace"
)

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe rtrace:", err)
		os.Exit(1)
	}
}

// fromAll runs event(w, n) on one goroutine per processor and returns the
// time until the last one finished: n events per goroutine, so the cost
// per event as each worker sees it.
func fromAll(p, n int, event func(w, n int)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			event(w, n)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

func main() {
	timing.Parse()
	p := timing.Procs

	rec := rtrace.NewRecorder(p, 1<<14)
	r := timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			rec.Event(0, rtrace.EvAlloc, 1, 96, 0)
		}
	})
	timing.Emit("rtrace.event_ns", "ns", r.Ns, timing.Reps())

	// Every worker on its own lane: what is left to share is the one
	// global sequence counter.
	r = timing.MeasureTimed(func(n int) time.Duration {
		return fromAll(p, n, func(w, n int) {
			for i := 0; i < n; i++ {
				rec.Event(w, rtrace.EvAlloc, 1, 96, 0)
			}
		})
	})
	timing.Emit("rtrace.event_contended_ns", "ns", r.Ns, timing.Reps())

	// dfdserve's always-on probe: every worker adds to the same counters.
	ctr := rtrace.NewCounters()
	r = timing.MeasureTimed(func(n int) time.Duration {
		return fromAll(p, n, func(w, n int) {
			for i := 0; i < n; i++ {
				ctr.Event(w, rtrace.EvAlloc, 1, 96, 0)
			}
		})
	})
	timing.Emit("rtrace.counters_event_ns", "ns", r.Ns, timing.Reps())

	passes(p)
}

// passes records one quota-stressed job of well over 100k events and times
// Summarize, Verify and Export over it, each scaled to 100k events.
func passes(p int) {
	const links = 16384 // about eleven events a link
	big := rtrace.NewRecorder(p, 1<<20)
	_, err := dfdeques.Run(dfdeques.RuntimeConfig{
		Workers: p, Sched: dfdeques.SchedDFDeques, K: 128, Seed: 1, Probe: big,
	}, func(t *dfdeques.Thread) {
		for i := 0; i < links; i++ {
			h := t.Fork(func(c *dfdeques.Thread) {
				c.Alloc(96)
				c.Free(96)
			})
			t.Alloc(96)
			t.Free(96)
			t.Join(h)
		}
	})
	check(err)
	meta, evs, dropped := big.Meta(), big.Events(), big.Dropped()
	if dropped > 0 || len(evs) == 0 {
		check(fmt.Errorf("recorded %d events and dropped %d: want a whole stream", len(evs), dropped))
	}
	per100k := func(name string, pass func()) {
		ms := make([]float64, timing.Reps())
		for i := range ms {
			t0 := time.Now()
			pass()
			ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6 * 100_000 / float64(len(evs))
		}
		timing.Emit(name, "ms", timing.Median(ms), len(ms))
	}
	per100k("rtrace.summarize_ms_per_100k", func() { rtrace.Summarize(meta, evs, dropped) })
	per100k("rtrace.verify_ms_per_100k", func() {
		_, err := rtrace.Verify(meta, evs, dropped)
		check(err)
	})
	per100k("rtrace.export_ms_per_100k", func() { check(rtrace.Export(io.Discard, meta, evs, dropped)) })
}
