package serve

// The adaptive budget controller: a feedback loop (the online analogue
// of §7's tuning of K) that watches each tenant's live rejection
// pressure — admission 429s (over_budget + cost_shed) plus in-run budget
// kills — together with the runtime-wide memory-quota preemption rate
// from the live rtrace.Counters probe, and moves the tenant's EFFECTIVE
// admission headroom inside [floor, base]:
//
//   - Rising pressure means the tenant is pushing against its budget;
//     the controller pulls its effective headroom down one step (twice
//     as fast while the runtime is burning quota preemptions globally),
//     shedding earlier and cheaper — refusals instead of mid-run kills.
//   - Calm ticks (pressure flat) let the headroom relax back toward the
//     configured base, so a tenant that stops misbehaving recovers its
//     full admission band without operator action.
//
// The runtime's K itself stays fixed — it is read lock-free on the
// scheduler hot path — so adaptation happens entirely in the admission
// plane, where a CAS-free atomic threshold is enough. Controller state
// is observable at /metrics (ticks, shrinks, grows, the quota-exhaust
// window) and per tenant as eff_headroom in /v1/tenants.

import (
	"sync/atomic"
	"time"
)

const (
	// controllerFloor is the lowest the controller will pull a tenant's
	// effective admission headroom, as a fraction of its MemBudget.
	controllerFloor = 0.25
	// controllerStep is the fraction of a tenant's base headroom the
	// controller moves per tick.
	controllerStep = 0.10
)

type controller struct {
	s    *Server
	stop chan struct{}
	done chan struct{}

	lastQuota int64 // previous tick's global quota-exhaust count

	ticks      atomic.Int64
	shrinks    atomic.Int64
	grows      atomic.Int64
	quotaDelta atomic.Int64 // quota exhausts observed in the last window
}

func newController(s *Server) *controller {
	return &controller{s: s, stop: make(chan struct{}), done: make(chan struct{})}
}

// start launches the tick loop. Never called with interval <= 0 (tests
// disable the loop and drive tick directly).
func (c *controller) start(interval time.Duration) {
	go func() {
		defer close(c.done)
		tk := time.NewTicker(interval)
		defer tk.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tk.C:
				c.tick()
			}
		}
	}()
}

func (c *controller) close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// tick runs one control step over every tenant. Single-threaded: only
// the loop (or a test) calls it.
func (c *controller) tick() {
	q := int64(c.s.counters.LiveSummary().QuotaExhausts)
	dq := q - c.lastQuota
	c.lastQuota = q
	c.quotaDelta.Store(dq)

	for _, t := range c.s.adm.snapshot() {
		base := t.baseHead.Load()
		if base <= 0 {
			continue // unbudgeted tenant: nothing to adapt
		}
		floor := int64(controllerFloor * float64(t.budget.Limit()))
		if floor < 1 {
			floor = 1
		}
		if floor > base {
			floor = base
		}
		step := int64(controllerStep * float64(base))
		if step < 1 {
			step = 1
		}
		if dq > 0 {
			// The runtime is preempting on memory quota globally; shed
			// harder this window.
			step *= 2
		}
		pressure := t.rejectedBudget.Load() + t.rejectedCost.Load() + t.budget.Kills()
		eff := t.effHead.Load()
		switch {
		case pressure > t.ctlLast:
			if ne := max64(eff-step, floor); ne != eff {
				t.effHead.Store(ne)
				c.shrinks.Add(1)
			}
		case eff < base:
			t.effHead.Store(min64(eff+step, base))
			c.grows.Add(1)
		}
		t.ctlLast = pressure
	}
	c.ticks.Add(1)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
