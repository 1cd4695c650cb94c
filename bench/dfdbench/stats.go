package main

import (
	"math"
	"sort"
	"time"
)

// windows is how many equal parts the timed period is split into; a rate
// is reported as the median of the parts so that one stall of the host
// moves one part and not the result.
const windows = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the value
}

// sample is one job as the harness saw it.
type sample struct {
	at       time.Duration // the job's reference instant, from the start of the timed period: when it was due (open loop) or sent
	latency  time.Duration // reference instant to finish
	inside   time.Duration // accepted by the system under test to finish
	late     time.Duration // how far behind its plan the generator ran
	ok       bool          // answered, done, and every output check passed
	hwOverS1 float64       // the job's heap high-water over its serial space
	maxLive  int64         // JobStats.MaxLiveThreads
	preempts int64         // JobStats.Preemptions
	dummies  int64         // JobStats.DummyThreads
}

// percentile returns the q-quantile of sorted by the nearest-rank rule
// (the smallest value with at least q of the values at or below it), or
// 0 for no values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the middle of v, the mean of the middle pair for an even
// count, or 0 for no values. v is sorted in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// ms converts to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// jobsPerSec is the median over the windows of dur of the rate at which
// verified jobs finished. A job that finished after dur is in no window.
func jobsPerSec(samples []sample, dur time.Duration) float64 {
	var done [windows]float64
	width := dur / windows
	for _, s := range samples {
		if w := int((s.at + s.latency) / width); s.ok && w >= 0 && w < windows {
			done[w]++
		}
	}
	for i := range done {
		done[i] /= width.Seconds()
	}
	return median(done[:])
}

// sortedMs returns pick(s) in milliseconds for every verified sample,
// ascending.
func sortedMs(samples []sample, pick func(sample) time.Duration) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.ok {
			out = append(out, ms(pick(s)))
		}
	}
	sort.Float64s(out)
	return out
}

func latencyOf(s sample) time.Duration { return s.latency }

// period is one measured stretch of a workload.
type period struct {
	samples []sample
	dur     time.Duration
	cpuSec  float64 // CPU the process under test used
	mallocs uint64  // heap allocations of the benchmark process
	crashes int     // deaths of the system under test
}

func (p period) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// endToEnd computes the end-to-end metrics of an untraced period. sloMs is
// the workload's frozen latency limit and setups the set-up times seen.
func (p period) endToEnd(sloMs float64, setups []float64) map[string]metric {
	n := len(p.samples)
	lat := sortedMs(p.samples, latencyOf)
	met := 0
	for _, l := range lat {
		if l <= sloMs {
			met++
		}
	}
	// The mean, not the median: the ratio is bounded, and a median stays
	// at 1 until more than half the jobs are touched by a change.
	var ratios float64
	for _, s := range p.samples {
		if s.ok {
			ratios += s.hwOverS1
		}
	}
	perJob := func(total float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		return total / float64(len(lat))
	}
	share := func(k int) float64 {
		if n == 0 {
			return 0
		}
		return float64(k) / float64(n)
	}
	return map[string]metric{
		"setup_s":            {median(setups), "s", len(setups)},
		"jobs_per_s":         {jobsPerSec(p.samples, p.dur), "1/s", windows},
		"job_latency_p50_ms": {percentile(lat, 0.5), "ms", len(lat)},
		"slo_met_share":      {share(met), "share", n},
		"verified_share":     {share(n - p.failed()), "share", n},
		"cpu_ms_per_job":     {perJob(p.cpuSec * 1e3), "ms", len(lat)},
		"heap_hw_over_s1":    {perJob(ratios), "ratio", len(lat)},
		"allocs_per_job":     {perJob(float64(p.mallocs)), "count", len(lat)},
	}
}
