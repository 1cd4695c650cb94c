package policy

import "dfdeques/internal/dag"

// PrioNode is a test thread's place in a fork tree. The policy tests order
// their threads by dag.Before over these nodes, in the polarity of the
// Prios that minted them. It is exported for the policy_test package.
type PrioNode struct {
	parent       *PrioNode
	depth        int
	index, forks int64
}

func (n *PrioNode) pos() (*PrioNode, int, int64) { return n.parent, n.depth, n.index }

// Prios mints PrioNodes of one order: ParentFirst puts a fork right after
// its forker (the runtime's order), ChildFirst right before it (the
// simulator's). The zero value is ChildFirst.
type Prios struct {
	Order dag.Order
	roots int64
}

// Root mints a root, after every node minted before it.
func (p *Prios) Root() *PrioNode {
	p.roots++
	return &PrioNode{index: p.roots}
}

// Fork mints x's next child.
func (p *Prios) Fork(x *PrioNode) *PrioNode {
	c := &PrioNode{parent: x, depth: x.depth + 1, index: x.forks}
	x.forks++
	return c
}

// Less reports whether a precedes b in p's order.
func (p *Prios) Less(a, b *PrioNode) bool { return dag.Before(a, b, (*PrioNode).pos, p.Order) }
