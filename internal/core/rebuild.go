package core

import "fmt"

// BlockPolicy selects where a rebuilt node's block of consecutive routing
// elements is placed relative to its identifier. The default, BlockCentered,
// centers the block on the id; BlockLeftmost always takes the leftmost
// feasible block (the block-placement ablation compares the two).
type BlockPolicy int

const (
	// BlockCentered centers each node's routing-element block on its id.
	BlockCentered BlockPolicy = iota
	// BlockLeftmost takes the leftmost feasible block for each node.
	BlockLeftmost
)

// SetBlockPolicy selects the block-placement strategy used by rotations.
func (t *Tree) SetBlockPolicy(p BlockPolicy) { t.blockPolicy = p }

// The rebuilds below implement the paper's generalized rotation
// (Section 4.1) for the two fragment sizes the splay loops use: merge the d
// routing arrays in in-order, then re-emit the first d-1 nodes bottom-up,
// each taking a block of consecutive routing elements whose induced gap
// covers its identifier; the final (deepest) node takes the remaining
// elements and the fragment's slot at the old parent. With d=2 this is
// k-semi-splay (the zig generalization); with d=3 it is k-splay (the
// zig-zig/zig-zag generalization).
//
// Node identifiers never change; only routing arrays and adjacency do — in
// the arena representation a rotation is pure index surgery over the
// interleaved spans. A node's span is its own in-order expansion
// (kid0 thr0 kid1 … kid(k−1)), so merging the fragment is splicing child
// spans into their slot positions — 3 (d=2) or 5 (d=3) contiguous block
// copies — and a node's re-emitted block of k−1 routing elements plus its
// k induced child slots is ONE contiguous window m[2s : 2s+2k−1] of the
// merge. Because construction pads every routing array to exactly k−1
// elements and rotations preserve fullness, every block is exactly
// full-width (blockSize(d·(k−1), d, k−1) = k−1 identically) and the fixed
// spans never need resizing.
//
// The rebuilds are allocation-free: the merge goes through a per-tree
// scratch slice preallocated at the d=3 maximum. The scratch makes a
// rebuild — and therefore Serve on every tree-backed network —
// non-reentrant per tree.
//
// Empty child slots are index 0, and the parent-update loops deliberately
// write parent[0] instead of branching on emptiness; parent[0] is a scratch
// cell that no reader consults (Snapshot normalizes it).
//
// A child's slot in its parent is not stored: it is the parent's interval
// that contains the child's id value (Validate guarantees every id of a
// subtree lies in its slot's interval), so the rebuilds find the on-path
// slots with one span-kernel call each on the parent's span.

// rebuild2 performs one two-node rebuild (a k-semi-splay step): x, a child
// of p, takes p's place and p is re-hung in the induced gap of x's new
// routing array.
func (t *Tree) rebuild2(p, x int32) {
	k := t.k
	w := 2*k - 1 // interleaved span width
	oldParent := t.parent[p]
	var before map[edge]struct{}
	if t.trackEdges {
		t.pathBuf[0], t.pathBuf[1] = p, x
		before = t.fragmentEdges(t.pathBuf[:2])
	}

	spP, spX := t.span(p), t.span(x)
	c := t.kSpan(spP, int32(t.idValue(int(x))))
	par := t.parent

	// In-order merge of the fragment: p's span with x's span spliced into
	// slot c (in-span offset 2c); mov picks scalar or memmove by span
	// length (the profile at k = 32 puts these moves at ~40% of serve
	// time, so the large-k spans must ride memmove).
	m := t.scratch[:2*w-1]
	mov(m[:2*c], spP[:2*c])
	mov(m[2*c:2*c+w], spX)
	mov(m[2*c+w:], spP[2*c+1:])

	// p takes the full-width block whose induced gap covers its id. The
	// placement search over the 2(k−1)-threshold merge runs through the
	// per-arity routing kernel — this is the threshold scan on the serve
	// hot path (every always-splay request rebuilds its whole access
	// path).
	j := t.kMerge2(m, int32(t.idValue(int(p))))
	s := blockStartAt(t.blockPolicy, j, k-1, 2*(k-1))
	mov(spP, m[2*s:2*s+w])
	for i := 0; i < w; i += 2 {
		par[spP[i]] = p
	}

	// x keeps the remainder, with p re-hung in the induced gap.
	mov(spX[:2*s], m[:2*s])
	spX[2*s] = p
	mov(spX[2*s+1:], m[2*s+w:])
	for i := 0; i < w; i += 2 {
		par[spX[i]] = x
	}

	par[x] = oldParent
	if oldParent == 0 {
		t.root = x
	} else {
		// The old parent's span is untouched, and every fragment id lies
		// in the fragment's slot there.
		sp := t.span(oldParent)
		sp[2*t.kSpan(sp, int32(t.idValue(int(x))))] = x
	}

	// Elementary-rotation accounting: one parent-child flip, exactly like
	// zig in binary splay trees.
	t.rotations++
	if t.trackEdges {
		after := t.fragmentEdges(t.pathBuf[:2])
		t.edgeChanges += int64(symmetricDiff(before, after))
	}
}

// rebuild3 performs one three-node rebuild (a k-splay step): x, a grandchild
// of g through p, moves to the top of the three-node fragment. When the two
// lower blocks end up disjoint the result matches the paper's "first case"
// (both become children of the new top); when the second block's gap
// swallows the first node's gap it matches the "second case" (a chain).
func (t *Tree) rebuild3(g, p, x int32) {
	k := t.k
	w := 2*k - 1 // interleaved span width
	oldParent := t.parent[g]
	var before map[edge]struct{}
	if t.trackEdges {
		t.pathBuf[0], t.pathBuf[1], t.pathBuf[2] = g, p, x
		before = t.fragmentEdges(t.pathBuf[:3])
	}

	spG, spP, spX := t.span(g), t.span(p), t.span(x)
	cg := t.kSpan(spG, int32(t.idValue(int(p))))
	cp := t.kSpan(spP, int32(t.idValue(int(x))))
	par := t.parent

	// In-order merge: g's span with p's span spliced into slot cg, which in
	// turn holds x's span spliced into slot cp.
	m := t.scratch[:3*w-2]
	mov(m[:2*cg], spG[:2*cg])
	o := 2 * cg
	mov(m[o:o+2*cp], spP[:2*cp])
	o += 2 * cp
	mov(m[o:o+w], spX)
	o += w
	mov(m[o:o+w-2*cp-1], spP[2*cp+1:])
	o += w - 2*cp - 1
	mov(m[o:], spG[2*cg+1:])

	// g takes the first full-width block, then the merge is compacted with
	// g re-hung in its induced gap. Placement searches run through the
	// per-arity routing kernels: the 3(k−1)-threshold merge first, the
	// 2(k−1)-threshold compacted remainder below.
	j := t.kMerge3(m, int32(t.idValue(int(g))))
	s := blockStartAt(t.blockPolicy, j, k-1, 3*(k-1))
	mov(spG, m[2*s:2*s+w])
	for i := 0; i < w; i += 2 {
		par[spG[i]] = g
	}
	m[2*s] = g
	mov(m[2*s+1:], m[2*s+w:])
	m = m[:2*w-1]

	// p takes the next block from the remainder.
	j = t.kMerge2(m, int32(t.idValue(int(p))))
	s = blockStartAt(t.blockPolicy, j, k-1, 2*(k-1))
	mov(spP, m[2*s:2*s+w])
	for i := 0; i < w; i += 2 {
		par[spP[i]] = p
	}

	// x keeps the rest, with p re-hung in the induced gap.
	mov(spX[:2*s], m[:2*s])
	spX[2*s] = p
	mov(spX[2*s+1:], m[2*s+w:])
	for i := 0; i < w; i += 2 {
		par[spX[i]] = x
	}

	par[x] = oldParent
	if oldParent == 0 {
		t.root = x
	} else {
		// The old parent's span is untouched, and every fragment id lies
		// in the fragment's slot there.
		sp := t.span(oldParent)
		sp[2*t.kSpan(sp, int32(t.idValue(int(x))))] = x
	}

	// A three-node rebuild lifts the deepest node two levels: the work of
	// two parent-child flips, exactly like zig-zig/zig-zag in binary splay
	// trees.
	t.rotations += 2
	if t.trackEdges {
		after := t.fragmentEdges(t.pathBuf[:3])
		t.edgeChanges += int64(symmetricDiff(before, after))
	}
}

// SemiSplay performs one k-semi-splay rotation: y, a non-root node, becomes
// the parent of its current parent. It returns an error if y is the root.
func (t *Tree) SemiSplay(y *Node) error {
	p := t.parent[y.ix]
	if p == 0 {
		return fmt.Errorf("core: cannot semi-splay the root (node %d)", y.ix)
	}
	t.rebuild2(p, y.ix)
	return nil
}

// SplayStep performs one k-splay rotation: z, a node with a grandparent,
// moves to the top of the three-node fragment (grandparent, parent, z).
func (t *Tree) SplayStep(z *Node) error {
	p := t.parent[z.ix]
	if p == 0 || t.parent[p] == 0 {
		return fmt.Errorf("core: k-splay needs a grandparent (node %d)", z.ix)
	}
	t.rebuild3(t.parent[p], p, z.ix)
	return nil
}

// intervalIndex returns the index of the interval of the sorted element
// array that contains the cut-space value under threshold semantics: the
// number of elements strictly less than the value. (The pointer-reference
// differential test shares it.)
func intervalIndex(elems []int, value int) int {
	j := 0
	for _, e := range elems {
		if e < value {
			j++
		}
	}
	return j
}

// movCopyMin is the element count from which mov routes through copy()
// (runtime.memmove) instead of the scalar loop. gc does not vectorize the
// scalar loop, so it moves 4 bytes per iteration while memmove moves whole
// vector registers; only for the very shortest spans does the memmove call
// overhead lose to a handful of scalar stores. BenchmarkMov measures the
// crossover on the exact lengths the rebuilds move: scalar wins at n=3
// (1.7 vs 2.2 ns), copy wins from n=9 up (2.7 vs 7.6 ns) and by n=63 — the
// k=32 span, where these moves are ~40% of serve time — is ~8× faster
// (4.7 vs 36.1 ns). 4 keeps the k=2 span and sub-span slivers scalar and
// routes everything else through memmove.
const movCopyMin = 4

// mov copies src into dst[:len(src)]: a forward scalar loop for short
// spans, copy() beyond movCopyMin. Both forms handle the one overlapping
// use (the d=3 compaction shifts left — forward scalar order is safe, and
// copy is memmove).
func mov(dst, src []int32) {
	if len(src) >= movCopyMin {
		copy(dst, src)
		return
	}
	_ = dst[:len(src)]
	for i := 0; i < len(src); i++ {
		dst[i] = src[i]
	}
}

// blockStartAt chooses the starting index of a b-element block such that the
// induced gap (the merged interval left after removing the block) contains
// the id sitting in interval j. Feasible starts are [max(0,j-b), min(j,L-b)].
// It is a pure function of the policy so the arena rebuild and the
// pointer-reference differential test share one implementation.
func blockStartAt(policy BlockPolicy, j, b, L int) int {
	lo := j - b
	if lo < 0 {
		lo = 0
	}
	hi := j
	if hi > L-b {
		hi = L - b
	}
	if policy == BlockLeftmost {
		return lo
	}
	s := j - b/2
	if s < lo {
		s = lo
	}
	if s > hi {
		s = hi
	}
	return s
}

type edge struct{ parent, child int }

// fragmentEdges snapshots the parent-child links incident to the fragment:
// the links from each path node to its children and to its parent (0 when
// the node is the tree root).
func (t *Tree) fragmentEdges(path []int32) map[edge]struct{} {
	set := make(map[edge]struct{}, len(path)*t.k)
	for _, ix := range path {
		sp := t.span(ix)
		for i := 0; i < len(sp); i += 2 {
			if ch := sp[i]; ch != 0 {
				set[edge{int(ix), int(ch)}] = struct{}{}
			}
		}
		set[edge{int(t.parent[ix]), int(ix)}] = struct{}{}
	}
	return set
}

func symmetricDiff(a, b map[edge]struct{}) int {
	d := 0
	for e := range a {
		if _, ok := b[e]; !ok {
			d++
		}
	}
	for e := range b {
		if _, ok := a[e]; !ok {
			d++
		}
	}
	return d
}
