// Package om implements an order-maintenance list: a sequence of records
// supporting O(1) order queries between any two records and amortized
// O(log n) insertion of a new record immediately before or after an
// existing one.
//
// DFDeques and the depth-first schedulers prioritize threads by their
// serial depth-first (1DF) execution order. That order is built
// incrementally — a forked child receives the priority immediately higher
// than its parent — so the scheduler needs exactly the operations this
// package provides: InsertBefore, InsertAfter, Delete, and Less.
//
// The implementation follows the classic tag-relabeling scheme (Dietz &
// Sleator; Bender et al.): each record carries a 62-bit integer tag, and
// order queries compare tags. When an insertion finds no free tag between
// its neighbors, the smallest enclosing power-of-two tag range whose
// density is below a geometrically growing threshold is relabeled
// uniformly.
package om

import "fmt"

// maxTagBits is the width of the tag space. Tags live in [0, 2^maxTagBits).
const maxTagBits = 62

// Record is an element of an order-maintenance list. The zero value is not
// usable; obtain Records from List.Front, InsertBefore, or InsertAfter.
type Record struct {
	tag        uint64
	prev, next *Record
	list       *List
}

// List is an order-maintenance list. The zero value is an empty list ready
// for use. A List is not safe for concurrent use.
type List struct {
	head, tail *Record // sentinels, lazily initialized
	n          int

	// free chains deleted records (linked through next) for reuse by the
	// next insertion: the simulator and the replay verifier delete and
	// insert records at the fork/terminate rate. Freed records are
	// detached from the head walk, so invariant checks never see them.
	free *Record
}

func (l *List) init() {
	if l.head != nil {
		return
	}
	l.head = &Record{tag: 0, list: l}
	l.tail = &Record{tag: 1 << maxTagBits, list: l}
	l.head.next = l.tail
	l.tail.prev = l.head
}

// Len reports the number of records in the list.
func (l *List) Len() int { return l.n }

// Front returns the first record, or nil if the list is empty.
func (l *List) Front() *Record {
	if l.head == nil || l.head.next == l.tail {
		return nil
	}
	return l.head.next
}

// Back returns the last record, or nil if the list is empty.
func (l *List) Back() *Record {
	if l.head == nil || l.tail.prev == l.head {
		return nil
	}
	return l.tail.prev
}

// Next returns the record after r, or nil if r is the last record.
func (r *Record) Next() *Record {
	if r.next == nil || r.next == r.list.tail {
		return nil
	}
	return r.next
}

// Prev returns the record before r, or nil if r is the first record.
func (r *Record) Prev() *Record {
	if r.prev == nil || r.prev == r.list.head {
		return nil
	}
	return r.prev
}

// PushFront inserts a new record at the front of the list.
func (l *List) PushFront() *Record {
	l.init()
	return l.insertBetween(l.head, l.head.next)
}

// PushBack inserts a new record at the back of the list.
func (l *List) PushBack() *Record {
	l.init()
	return l.insertBetween(l.tail.prev, l.tail)
}

// InsertBefore inserts a new record immediately before r and returns it.
func (l *List) InsertBefore(r *Record) *Record {
	if r.list != l {
		panic("om: InsertBefore on record from another list")
	}
	return l.insertBetween(r.prev, r)
}

// InsertAfter inserts a new record immediately after r and returns it.
func (l *List) InsertAfter(r *Record) *Record {
	if r.list != l {
		panic("om: InsertAfter on record from another list")
	}
	return l.insertBetween(r, r.next)
}

// Delete removes r from the list and recycles it for a later insertion.
// r must not be used afterwards.
func (l *List) Delete(r *Record) {
	if r.list != l {
		panic("om: Delete on record from another list")
	}
	r.prev.next = r.next
	r.next.prev = r.prev
	r.prev, r.list = nil, nil
	r.next = l.free
	l.free = r
	l.n--
}

// Less reports whether a precedes b in the list order. Both records must
// belong to the same list.
func Less(a, b *Record) bool {
	if a.list == nil || a.list != b.list {
		panic("om: Less on records from different lists")
	}
	return a.tag < b.tag
}

func (l *List) insertBetween(before, after *Record) *Record {
	if before.tag+1 >= after.tag {
		l.relabel(before)
		// relabel guarantees a gap between before and before.next; after
		// may have moved, so re-read it.
		after = before.next
	}
	r := l.free
	if r != nil {
		l.free = r.next
	} else {
		r = &Record{}
	}
	r.tag = before.tag + (after.tag-before.tag)/2
	r.prev, r.next, r.list = before, after, l
	before.next = r
	after.prev = r
	l.n++
	return r
}

// relabel redistributes tags so that a gap opens immediately after pivot.
// It finds the smallest enclosing power-of-two tag range whose density is
// below a threshold that decays geometrically with the range's level, then
// spreads the range's records uniformly across it.
func (l *List) relabel(pivot *Record) {
	// The sentinels' tags (0 and 2^maxTagBits) never change; relabeling
	// only moves interior records. Overflow density forces a full spread
	// in the worst case, which always succeeds because n << 2^62.
	const t = 1.38 // density threshold base; any 1 < t < 2 works
	level := 1
	lo, hi := rangeAround(pivot.tag, level)
	count, first := l.countInRange(pivot, lo, hi)
	thresh := 2.0 / t
	// Grow the range until the density is acceptable AND the range is wide
	// enough that uniform spreading leaves gaps of at least 2 between
	// consecutive tags (so the caller's midpoint insertion succeeds).
	for float64(count) >= thresh*float64(uint64(1)<<level) ||
		uint64(count+1) > (hi-lo)/2 {
		level++
		if level > maxTagBits {
			panic("om: tag space exhausted")
		}
		lo, hi = rangeAround(pivot.tag, level)
		count, first = l.countInRange(pivot, lo, hi)
		thresh /= t
	}
	// Spread the count records uniformly across (lo, hi]. Skip tag lo
	// itself in case a record outside the walk (or the head sentinel)
	// already holds it.
	width := (hi - lo) / uint64(count+1)
	tag := lo + width
	for r, i := first, 0; i < count; r, i = r.next, i+1 {
		r.tag = tag
		tag += width
	}
}

// rangeAround returns the aligned power-of-two tag range of the given
// level (width 2^level) that contains tag, as a half-open interval
// (lo, lo+2^level]; records strictly inside use tags in (lo, hi).
func rangeAround(tag uint64, level int) (lo, hi uint64) {
	width := uint64(1) << level
	lo = tag &^ (width - 1)
	return lo, lo + width
}

// countInRange walks outward from pivot and returns the number of
// non-sentinel records whose tags lie in (lo, hi), along with the first
// such record.
func (l *List) countInRange(pivot *Record, lo, hi uint64) (int, *Record) {
	first := pivot
	if first == l.head {
		first = first.next
		if first == l.tail {
			return 0, first
		}
	}
	for first.prev != l.head && first.prev.tag > lo {
		first = first.prev
	}
	count := 0
	for r := first; r != l.tail && r.tag < hi; r = r.next {
		count++
	}
	return count, first
}

// check verifies internal invariants; used by tests.
func (l *List) check() error {
	if l.head == nil {
		return nil
	}
	for r := l.head; r.next != nil; r = r.next {
		if r.next.prev != r {
			return fmt.Errorf("om: broken back link at tag %d", r.tag)
		}
		if r.next.tag <= r.tag {
			return fmt.Errorf("om: tags not strictly increasing: %d then %d", r.tag, r.next.tag)
		}
	}
	seen := 0
	for r := l.head.next; r != l.tail; r = r.next {
		seen++
	}
	if seen != l.n {
		return fmt.Errorf("om: length mismatch: counted %d, recorded %d", seen, l.n)
	}
	return nil
}
