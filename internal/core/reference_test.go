package core

import (
	"fmt"
	"strings"
)

// This file carries a deliberately naive pointer-linked implementation of
// the k-ary search tree: nodes are heap objects holding their own routing
// slice and child-pointer slice, and a rotation is the paper's generalized
// rebuild in its most literal form — expand the fragment in-order into
// fresh slices, then re-emit blocks bottom-up. It is the representation the
// arena (tree.go) replaced, kept as a test-only oracle: the differential
// property test in reference_diff_test.go drives both implementations with
// identical operation sequences and demands identical renderings, parent
// vectors and distances after every step.
//
// The reference goes through the generic blockSize path (no full-array
// shortcut), so agreement also re-verifies the specialization argument the
// arena rebuilds rely on: with every routing array at exactly k−1
// elements, blockSize(d·(k−1), d, k−1) ≡ k−1. The pure placement helpers
// intervalIndex and blockStartAt are shared with the production rebuilds
// rather than duplicated, so the test pins the representations against
// each other, not two copies of the same bug.

// blockSize picks the number of routing elements the next rebuilt node
// takes: balanced across the remaining nodes, but always leaving at most
// maxB elements for the nodes still to be placed (feasibility) and never
// exceeding maxB itself. With full routing arrays (avail = rem·maxB) it is
// identically maxB — the specialized arena rebuilds (rebuild.go) rely on
// exactly that and never call it; only this reference takes the general form.
func blockSize(avail, remNodes, maxB int) int {
	b := (avail + remNodes - 1) / remNodes // ceil: balanced share
	if lo := avail - maxB*(remNodes-1); b < lo {
		b = lo
	}
	if b > maxB {
		b = maxB
	}
	if b > avail {
		b = avail
	}
	if b < 0 {
		b = 0
	}
	return b
}

type refNode struct {
	id     int
	elems  []int // cut-space routing elements, ascending
	kids   []*refNode
	parent *refNode
}

type refTree struct {
	k, n, scale int
	root        *refNode
	byID        []*refNode
	policy      BlockPolicy
}

// newRefTree mirrors the current topology of an arena tree into the
// pointer representation.
func newRefTree(t *Tree) *refTree {
	r := &refTree{k: t.K(), n: t.N(), scale: t.Scale(), policy: t.blockPolicy}
	r.byID = make([]*refNode, r.n+1)
	var mirror func(nd *Node, parent *refNode) *refNode
	mirror = func(nd *Node, parent *refNode) *refNode {
		rn := &refNode{id: nd.ID(), elems: nd.RoutingArray(), parent: parent}
		r.byID[rn.id] = rn
		rn.kids = make([]*refNode, nd.NumSlots())
		for i := 0; i < nd.NumSlots(); i++ {
			if c := nd.Child(i); c != nil {
				rn.kids[i] = mirror(c, rn)
			}
		}
		return rn
	}
	r.root = mirror(t.Root(), nil)
	return r
}

func (r *refTree) idValue(id int) int { return id * r.scale }

func (rn *refNode) childIndex(c *refNode) int {
	for i, ch := range rn.kids {
		if ch == c {
			return i
		}
	}
	return -1
}

// rebuild is the generic d-node generalized rotation over the pointer
// representation: expand the fragment in-order, then re-emit path[0..d-2]
// bottom-up, each taking a block whose induced gap covers its id; the
// deepest node keeps the remainder and the fragment's slot at the old
// parent.
func (r *refTree) rebuild(path []*refNode) {
	d := len(path)
	if d < 2 {
		return
	}
	top := path[0]
	oldParent := top.parent
	oldSlot := -1
	if oldParent != nil {
		oldSlot = oldParent.childIndex(top)
	}

	onPath := make(map[*refNode]bool, d)
	for _, nd := range path {
		onPath[nd] = true
	}
	var elems []int
	var subs []*refNode
	var expand func(nd *refNode)
	expand = func(nd *refNode) {
		for i, ch := range nd.kids {
			if i > 0 {
				elems = append(elems, nd.elems[i-1])
			}
			if ch != nil && onPath[ch] {
				expand(ch)
			} else {
				subs = append(subs, ch)
			}
		}
	}
	expand(top)

	for i := 0; i < d-1; i++ {
		x := path[i]
		b := blockSize(len(elems), d-i, r.k-1)
		j := intervalIndex(elems, r.idValue(x.id))
		s := blockStartAt(r.policy, j, b, len(elems))

		x.elems = append([]int(nil), elems[s:s+b]...)
		x.kids = append([]*refNode(nil), subs[s:s+b+1]...)
		for _, ch := range x.kids {
			if ch != nil {
				ch.parent = x
			}
		}
		elems = append(elems[:s], elems[s+b:]...)
		subs[s] = x
		subs = append(subs[:s+1], subs[s+b+1:]...)
	}
	newTop := path[d-1]
	newTop.elems = append([]int(nil), elems...)
	newTop.kids = append([]*refNode(nil), subs...)
	for _, ch := range newTop.kids {
		if ch != nil {
			ch.parent = newTop
		}
	}
	newTop.parent = oldParent
	if oldParent == nil {
		r.root = newTop
	} else {
		oldParent.kids[oldSlot] = newTop
	}
}

// splayUntilParent mirrors Tree.SplayUntilParent: k-splay (double) steps
// where a grandparent short of the stop exists, a final k-semi-splay step
// otherwise.
func (r *refTree) splayUntilParent(x, stop *refNode) {
	for x.parent != stop {
		p := x.parent
		if g := p.parent; g == stop {
			r.rebuild([]*refNode{p, x})
		} else {
			r.rebuild([]*refNode{g, p, x})
		}
	}
}

// semiSplayUntilParent mirrors Tree.SemiSplayUntilParent.
func (r *refTree) semiSplayUntilParent(x, stop *refNode) {
	for x.parent != stop {
		r.rebuild([]*refNode{x.parent, x})
	}
}

func (r *refTree) depth(nd *refNode) int {
	d := 0
	for p := nd.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// distanceLCA mirrors Tree.DistanceLCA with plain pointer walks.
func (r *refTree) distanceLCA(u, v int) (int, int) {
	a, b := r.byID[u], r.byID[v]
	if a == b {
		return 0, u
	}
	da, db := r.depth(a), r.depth(b)
	dist := 0
	for da > db {
		a = a.parent
		da--
		dist++
	}
	for db > da {
		b = b.parent
		db--
		dist++
	}
	for a != b {
		a, b = a.parent, b.parent
		dist += 2
	}
	return dist, a.id
}

// render reproduces Tree.Render byte for byte.
func (r *refTree) render() string {
	var b strings.Builder
	r.renderNode(&b, r.root, "", "")
	return b.String()
}

func (r *refTree) renderNode(b *strings.Builder, nd *refNode, prefix, childPrefix string) {
	fmt.Fprintf(b, "%s%d", prefix, nd.id)
	if r.k > 1 {
		b.WriteString(" r=[")
		for i, th := range nd.elems {
			if i > 0 {
				b.WriteByte(' ')
			}
			if th%r.scale == 0 {
				fmt.Fprintf(b, "%d", th/r.scale)
			} else {
				fmt.Fprintf(b, "%.1f", float64(th)/float64(r.scale))
			}
		}
		b.WriteString("]")
	}
	b.WriteByte('\n')
	var kids []*refNode
	for _, ch := range nd.kids {
		if ch != nil {
			kids = append(kids, ch)
		}
	}
	for i, ch := range kids {
		if i == len(kids)-1 {
			r.renderNode(b, ch, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			r.renderNode(b, ch, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// parents mirrors Tree.Parents.
func (r *refTree) parents() []int {
	out := make([]int, r.n+1)
	for id := 1; id <= r.n; id++ {
		if p := r.byID[id].parent; p != nil {
			out[id] = p.id
		}
	}
	return out
}
