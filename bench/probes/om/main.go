// Command om times the order-maintenance list of internal/om the way the
// runtime's priority order uses it. It imports no other layer.
package main

import (
	"dfdeques/bench/probes/timing"
	"dfdeques/internal/om"
)

var sink bool

func main() {
	timing.Parse()

	// A fork inserts the child immediately before its parent and a
	// finished thread is deleted: every insert lands on the same spot, the
	// list's worst case for relabelling. 64 records stay live, about the
	// depth of a deep fork tree.
	var l om.List
	anchor := l.PushBack()
	var live [64]*om.Record
	for i := range live {
		live[i] = l.InsertBefore(anchor)
	}
	r := timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			slot := &live[i&63]
			l.Delete(*slot)
			*slot = l.InsertBefore(anchor)
		}
	})
	timing.Emit("om.insert_delete_ns", "ns", r.Ns, timing.Reps())

	a, b := live[0], live[1]
	r = timing.Measure(func(n int) {
		for i := 0; i < n; i++ {
			sink = om.Less(a, b)
			a, b = b, a
		}
	})
	timing.Emit("om.less_ns", "ns", r.Ns, timing.Reps())
}
