package rtrace

import "testing"

// BenchmarkRecorderEvent isolates the per-slot recording cost. "interior"
// kinds reuse the lane's cached timestamp; "boundary" kinds pay the
// monotonic clock read (see exactTS) — the difference is the clock.
// "burst" writes a fork and its push (BurstForkPush) in one slot, with no
// clock read: against "interior", what a second record costs inside a
// burst.
func BenchmarkRecorderEvent(b *testing.B) {
	b.Run("interior", func(b *testing.B) {
		r := NewRecorder(1, 1<<14)
		for i := 0; i < b.N; i++ {
			r.Event(0, EvAlloc, 1, 96, 0)
		}
	})
	b.Run("boundary", func(b *testing.B) {
		r := NewRecorder(1, 1<<14)
		for i := 0; i < b.N; i++ {
			r.Event(0, EvComplete, 1, 0, 0)
		}
	})
	b.Run("burst", func(b *testing.B) {
		r := NewRecorder(1, 1<<14)
		for i := 0; i < b.N; i++ {
			r.Event(0, BurstForkPush, 1, 2, 3<<1)
		}
	})
}
