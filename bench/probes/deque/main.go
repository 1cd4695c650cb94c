// Command deque times the exported operations of internal/deque the way
// the schedulers call them. It imports no other layer of the repository.
package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"dfdeques/bench/probes/timing"
	"dfdeques/internal/deque"
)

// item stands in for a thread frame: every scheduler instantiates the
// deque with a pointer type.
type item struct{ _ int }

func main() {
	timing.Parse()
	x := &item{}

	// The owner fast path: one push and one pop at the top.
	d := deque.NewDeque[*item]()
	r := timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			d.PushTop(x)
			d.PopTop()
		}
	})
	timing.Emit("deque.push_pop_ns", "ns", r.Ns, timing.Reps())

	// An uncontended steal: the owner pushes, a foreign PopBottom takes
	// the oldest item. Eight resident items keep the deque shallow but
	// never empty, as in steady-state stealing.
	d = deque.NewDeque[*item]()
	for i := 0; i < 8; i++ {
		d.PushTop(x)
	}
	r = timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			d.PushTop(x)
			d.PopBottom()
		}
	})
	timing.Emit("deque.steal_ns", "ns", r.Ns, timing.Reps())
	timing.Emit("deque.allocs_per_steal", "count", r.Allocs, timing.Reps())

	ownerUnderSteal(x)

	// The membership change a successful steal pays, with |R| = 8: a
	// recycled deque goes in right of a mid-list victim and is deleted and
	// reset again, as core.SharedPool's freelist does it.
	var l deque.List[*item]
	for i := 0; i < 8; i++ {
		l.PushRight().PushTop(x)
	}
	victim, spare := l.Kth(4), deque.NewDeque[*item]()
	r = timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			l.InsertRightReuse(victim, spare)
			l.Delete(spare)
			spare.Reset()
		}
	})
	timing.Emit("deque.list_insert_delete_ns", "ns", r.Ns, timing.Reps())
}

// ownerUnderSteal times the owner's push/pop while one thief loops on
// PopBottom of the same deque. The owner pops on every second iteration,
// so half the pushes are left for the thief to find.
func ownerUnderSteal(x *item) {
	d := deque.NewDeque[*item]()
	var stop atomic.Bool
	var tries, stolen atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var t, s int64
		for !stop.Load() {
			if _, ok := d.PopBottom(); ok {
				s++
			}
			if t++; t&1023 == 0 {
				runtime.Gosched() // a one-processor host must still run the owner
			}
		}
		tries.Store(t)
		stolen.Store(s)
	}()
	r := timing.MeasureTimed(func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			d.PushTop(x)
			if i&1 == 1 {
				d.PopTop()
			}
		}
		el := time.Since(t0)
		for { // what the thief left behind must not pile up across repetitions
			if _, ok := d.PopTop(); !ok {
				break
			}
		}
		return el
	})
	stop.Store(true)
	<-done
	timing.Emit("deque.owner_under_steal_ns", "ns", r.Ns, timing.Reps())
	share := 0.0
	if t := tries.Load(); t > 0 {
		share = float64(stolen.Load()) / float64(t)
	}
	timing.Emit("deque.steal_success_share", "share", share, int(tries.Load()))
}
