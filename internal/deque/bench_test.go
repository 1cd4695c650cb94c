package deque_test

import (
	"testing"

	"dfdeques/internal/deque"
)

// BenchmarkListKth measures the steal hot path's victim indexing: every
// steal attempt calls Kth with an index inside the leftmost-p window.
// Slice backing makes this a bounds-checked array index.
func BenchmarkListKth(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(sizeName(n), func(b *testing.B) {
			var l deque.List[int]
			for i := 0; i < n; i++ {
				l.PushRight().PushTop(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = l.Kth(i % n)
			}
		})
	}
}

// BenchmarkListInsertDelete measures the membership-change cost a
// successful steal pays: insert a deque to the right of a mid-list victim,
// then delete it (both shift the tail and renumber positions, O(n)).
func BenchmarkListInsertDelete(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(sizeName(n), func(b *testing.B) {
			var l deque.List[int]
			for i := 0; i < n; i++ {
				l.PushRight().PushTop(i)
			}
			victim := l.Kth(n / 2)
			d := deque.NewDeque[int]()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.InsertRightReuse(victim, d)
				l.Delete(d)
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 8:
		return "r8"
	case 64:
		return "r64"
	default:
		return "r512"
	}
}
