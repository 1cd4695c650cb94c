package main

import (
	"math/rand"
	"sort"
	"time"
)

// arrival is one request of the open-loop schedule.
type arrival struct {
	due    time.Duration // from the start of the timed period
	tenant int           // index into the workload's tenants
	kind   int           // index into the workload's job mix
}

// openSchedule is the open loop's arrival plan for dur, a pure function of
// its arguments: Poisson arrivals at rate per second from a uniformly
// drawn tenant, plus a burst of burstSize jobs from tenant 0 every
// burstEvery. Every job's kind is drawn from mix, whose shares sum to 1.
func openSchedule(seed int64, dur time.Duration, rate float64, tenants int, mix []float64, burstEvery time.Duration, burstSize int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	draw := func() int { return drawKind(rng, mix) }
	var out []arrival
	for t := rng.ExpFloat64() / rate; ; t += rng.ExpFloat64() / rate {
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			break
		}
		out = append(out, arrival{due: due, tenant: rng.Intn(tenants), kind: draw()})
	}
	for due := burstEvery; due < dur; due += burstEvery {
		for i := 0; i < burstSize; i++ {
			out = append(out, arrival{due: due, tenant: 0, kind: draw()})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// drawKind draws an index of mix with the probability mix gives it.
func drawKind(rng *rand.Rand, mix []float64) int {
	u := rng.Float64()
	for k, share := range mix {
		if u -= share; u < 0 {
			return k
		}
	}
	return len(mix) - 1
}

// variantDraws is the order in which the lib workloads submit their job
// variants: n draws from [0, variants), a pure function of the seed.
func variantDraws(seed int64, n, variants int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(variants)
	}
	return out
}
