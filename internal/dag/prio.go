package dag

// Before reports whether thread a precedes thread b in the serial
// execution that runs every fork in order o: the priority order of the
// paper's schedulers (§3.1), read off the fork tree with no other state.
// pos returns a thread's place in that tree: its forking thread (the zero
// N for a root), its nesting depth (0 for a root) and its index among its
// forker's forks (a root: its index among the roots).
//
//   - ChildFirst (the paper's 1DF): a descendant comes first, and of two
//     siblings the earlier fork.
//   - ParentFirst (a forked thread is its forker's immediate successor):
//     an ancestor comes first, and of two siblings the later fork.
//
// In both orders the earlier of two roots comes first. A thread does not
// precede itself. O(nesting depth).
func Before[N comparable](a, b N, pos func(N) (parent N, depth int, index int64), o Order) bool {
	x, y := a, b
	px, dx, ix := pos(x)
	py, dy, iy := pos(y)
	da, db := dx, dy
	for dx > dy {
		x = px
		px, dx, ix = pos(x)
	}
	for dy > dx {
		y = py
		py, dy, iy = pos(y)
	}
	if x == y { // one is the other's ancestor, or a == b
		if o == ParentFirst {
			return da < db
		}
		return da > db
	}
	for px != py {
		x, y = px, py
		px, dx, ix = pos(x)
		py, _, iy = pos(y)
	}
	if dx == 0 || o == ChildFirst {
		return ix < iy
	}
	return ix > iy
}
