package dag

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// node is a thread of a test fork tree.
type node struct {
	parent       *node
	depth        int
	index, forks int64
}

func (n *node) pos() (*node, int, int64) { return n.parent, n.depth, n.index }

// forkHistory plays a history of roots, forks and deaths on a fork tree of
// nodes and, as the oracle, on one slice per Order that knows nothing of
// trees: a fork goes in right after its forker (ParentFirst) or right
// before it (ChildFirst), a root at the end, and a death comes out.
type forkHistory struct {
	roots int64
	live  []*node    // in birth order
	order [2][]*node // order[o]: the live nodes, first in order o first
}

func (h *forkHistory) born(n *node, at func(o Order) int) {
	h.live = append(h.live, n)
	for _, o := range []Order{ChildFirst, ParentFirst} {
		h.order[o] = slices.Insert(h.order[o], at(o), n)
	}
}

func (h *forkHistory) root() {
	h.roots++
	h.born(&node{index: h.roots}, func(o Order) int { return len(h.order[o]) })
}

func (h *forkHistory) fork(x *node) {
	c := &node{parent: x, depth: x.depth + 1, index: x.forks}
	x.forks++
	h.born(c, func(o Order) int {
		i := slices.Index(h.order[o], x)
		if o == ParentFirst {
			i++
		}
		return i
	})
}

func (h *forkHistory) die(x *node) {
	h.live = slices.DeleteFunc(h.live, func(n *node) bool { return n == x })
	for o := range h.order {
		h.order[o] = slices.DeleteFunc(h.order[o], func(n *node) bool { return n == x })
	}
}

// maxLive caps a history's live nodes: a fork past it is a death instead.
const maxLive = 80

// play runs a script, one byte per step: b%8 is the step (0 a root, 1–5 a
// fork, 6–7 a death) and b/8 picks the live node it acts on, counting back
// from the newest. After every step dag.Before must agree with the oracle
// on every ordered pair of live nodes, in both orders.
func (h *forkHistory) play(t *testing.T, script []byte) {
	t.Helper()
	for step, b := range script {
		op, n := b%8, len(h.live)
		switch {
		case n == 0 || op == 0:
			h.root()
		case op <= 5 && n < maxLive:
			h.fork(h.live[n-1-int(b/8)%n])
		default:
			h.die(h.live[n-1-int(b/8)%n])
		}
		for _, o := range []Order{ChildFirst, ParentFirst} {
			for i, x := range h.order[o] {
				for j, y := range h.order[o] {
					if got := Before(x, y, (*node).pos, o); got != (i < j) {
						t.Fatalf("step %d (byte %d), order %d: Before(order[%d], order[%d]) = %v, want %v (depths %d, %d)",
							step, b, o, i, j, got, i < j, x.depth, y.depth)
					}
				}
			}
		}
	}
}

// TestForkOrder checks dag.Before in both orders against the slice oracle
// over random histories with several roots, unbalanced trees and deaths,
// and over a chain 70 forks deep.
func TestForkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	deep := 0
	for i := 0; i < 200; i++ {
		script := make([]byte, 80)
		rng.Read(script)
		h := &forkHistory{}
		h.play(t, script)
		for _, o := range h.order {
			for _, n := range o {
				deep = max(deep, n.depth)
			}
		}
	}
	if deep < 5 {
		t.Errorf("random histories nest only %d deep", deep)
	}
	h := &forkHistory{}
	h.play(t, append([]byte{0}, bytes.Repeat([]byte{1}, 70)...))
	if d := h.live[70].depth; d != 70 {
		t.Errorf("chain: newest fork at depth %d, want 70", d)
	}
	h.play(t, []byte{0, 1, 9, 17, 6, 1, 14, 0, 1, 255, 254, 253})
}

// FuzzForkOrder runs TestForkOrder's check on arbitrary scripts.
func FuzzForkOrder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 9, 6, 0, 1, 17})
	f.Add(bytes.Repeat([]byte{1}, 40))
	f.Add([]byte{0, 0, 0, 1, 9, 17, 25, 6, 14, 22, 1, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 160 {
			script = script[:160]
		}
		(&forkHistory{}).play(t, script)
	})
}
