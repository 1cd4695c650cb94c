// Package timing is the measuring loop the layer probes share: grow the
// iteration count until one call lasts long enough, repeat, report the
// median. Each probe prints one JSON row per metric on standard output.
package timing

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

var (
	minDur = flag.Duration("min", 200*time.Millisecond, "shortest timed repetition of one row")
	reps   = flag.Int("reps", 5, "repetitions per row; the median is reported")
)

// Procs is the host's processor count; every probe that needs a worker or
// goroutine count uses it, never a literal.
var Procs = runtime.NumCPU()

// Parse reads the shared flags (a probe may add its own before calling).
func Parse() {
	flag.Parse()
	if *reps < 1 || *minDur <= 0 {
		fmt.Fprintln(os.Stderr, "probe: -reps and -min must be positive")
		os.Exit(2)
	}
}

// Reps is the number of repetitions behind each reported median.
func Reps() int { return *reps }

// Budget is the time one row may measure for: -min times -reps.
func Budget() time.Duration { return *minDur * time.Duration(*reps) }

// Row is one reported metric.
type Row struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"` // samples behind the value
}

// Emit prints one row.
func Emit(name, unit string, value float64, n int) {
	raw, err := json.Marshal(Row{Name: name, Value: value, Unit: unit, N: n})
	if err != nil { // a NaN or Inf value: a probe bug, not a measurement
		fmt.Fprintf(os.Stderr, "probe: %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

// Result is what Measure saw, per operation.
type Result struct {
	Ns     float64 // median over repetitions
	Allocs float64 // heap allocations, median over repetitions
	Ops    int     // operations per repetition
}

// Measure times run(n), which must perform n operations, and returns the
// per-operation medians over Reps repetitions of at least -min each.
func Measure(run func(n int)) Result {
	return MeasureTimed(func(n int) time.Duration {
		t0 := time.Now()
		run(n)
		return time.Since(t0)
	})
}

// MeasureTimed is Measure for rows that time only part of each call: run
// performs n operations and returns the time that counts.
func MeasureTimed(run func(n int) time.Duration) Result {
	n := 256
	for {
		d := run(n)
		if d >= *minDur || n >= 1<<30 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = 1.2 * float64(*minDur) / float64(d)
		}
		if grow > 100 {
			grow = 100
		}
		if grow < 1.1 {
			grow = 1.1
		}
		n = int(float64(n) * grow)
	}
	ns := make([]float64, *reps)
	allocs := make([]float64, *reps)
	var before, after runtime.MemStats
	for i := range ns {
		runtime.ReadMemStats(&before)
		d := run(n)
		runtime.ReadMemStats(&after)
		ns[i] = float64(d.Nanoseconds()) / float64(n)
		allocs[i] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return Result{Ns: Median(ns), Allocs: Median(allocs), Ops: n}
}

// Median returns the median of v (the mean of the middle pair for an even
// count); v is sorted in place.
func Median(v []float64) float64 {
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
