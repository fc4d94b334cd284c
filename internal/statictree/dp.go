package statictree

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/workload"
)

const inf = math.MaxInt64 / 4

// blockRows is the wavefront's block height: each worker fills this many
// consecutive rows column by column (see run). Sixteen rows of the two
// row planes stay in L2 at n = 4096, and one column step of a block is
// long enough that waiting on the block below stays rare.
const blockRows = 16

// Optimal computes an optimal static routing-based k-ary search tree
// network for the given demand (Theorem 2/15): a tree minimizing
// Σ d_T(u,v)·D[u,v] among all routing-based k-ary search trees. It returns
// the tree and its total distance.
//
// It is a one-shot convenience wrapper over Solver; callers that need the
// optimum at several arities for the same demand (the Tables 1–7 sweep
// runs k=2..10) should build one Solver and call its Optimal method per
// arity, sharing the O(n²) boundary-traffic matrix and the DP scratch.
func Optimal(d *workload.Demand, k int) (*core.Tree, int64, error) {
	s, err := NewSolver(d)
	if err != nil {
		return nil, 0, err
	}
	return s.Optimal(k)
}

// Solver answers Optimal(k) queries for one fixed demand at any arity.
// Construction precomputes the boundary-traffic matrix W (O(n²), shared by
// every arity); each Optimal call runs the O(n³·k) dynamic program of the
// paper's Theorem 2/15 proof, with an admissible-bound root pruning that
// typically removes the k-factor from the root search (see fillSegment)
// and a row-block wavefront for the parallel fill (see run).
//
// Scratch ownership mirrors the serve-path contract of DESIGN.md §3: the
// DP tables are owned by the Solver and recycled across Optimal calls, so
// a Solver is NOT safe for concurrent use — serialize Optimal calls (they
// already use all cores internally) or build one Solver per goroutine.
// The demand is only read during construction; the returned trees are
// freshly built and independent of the Solver.
type Solver struct {
	n          int
	sc         *segmentCosts
	exhaustive bool
	workers    int

	// Per-call state, reused across Optimal calls (grown, never cleared:
	// every fill writes each cell of its segment before anything reads it).
	//
	// dp2(i,j,t) is the minimal cost of partitioning segment [i,j] into
	// AT MOST t routing-based k-ary search trees (the children of some
	// node), where the cost of a tree on [a,b] includes W[a,b], the
	// traffic crossing the link to its parent. Readers ask for at most
	// k-1 parts (a node has k slots, one side of it at most k-1), and a
	// forest on at most n nodes has at most n trees, so the DP runs at
	// arity k' = min(k, n+1) with planes = k'-1 values of t: every k ≥ n+1
	// yields the same costs and the same witness as k = n+1.
	//
	// Every recurrence term is a row walk on its left-hand side (dp2(i,l,·)
	// for growing l) and a column walk on its right-hand side (dp2(l,j,·)
	// for growing l), so the table is kept in both orders where it is
	// walked: col holds every plane column-major — col[(t-1)*T +
	// colAt(i,j)], column j contiguous in i — and is the table of record;
	// row1 and rowTop mirror planes 1 and k'-1 row-major (sc.t layout),
	// the only planes whose rows are walked. Scratch is planes+min(planes,2)
	// triangular planes, at most k+1.
	k, planes, T int // DP arity k' = min(k, n+1); planes = k'-1; T = n(n+1)/2
	col          []int64
	rows         []int64 // backing array of row1 and rowTop
	row1, rowTop []int64 // rowTop aliases row1 when planes == 1
	root         []int32 // root[tri(i,j)] = an argmin root of the 1-tree cost on [i,j]

	progress []blockProgress // per-block wavefront progress (see run)
	fill     []fillWorker    // per-worker scratch, fill[0] serves the serial path

	// Pruning diagnostics: exact O(k) split evaluations vs roots excluded
	// by the admissible bound, summed over the workers per Optimal call.
	rootsEvaluated, rootsSkipped int64
}

// fillWorker is one fill worker's private scratch and counters, padded
// so that two workers' counters never share a cache line.
type fillWorker struct {
	lb                 []int64 // root bounds of the segment being filled
	evaluated, skipped int64
	_                  [88]byte
}

// blockProgress is the last column a wavefront block has completed, and
// the parking place of the one worker that waits on it (the holder of
// the block above). Each sits on cache lines of its own, so the polling
// worker does not contend with the stores to its neighbours.
type blockProgress struct {
	col     atomic.Int64
	waiting atomic.Bool
	wake    chan struct{} // capacity 1: one waiter, at most one pending wake
	_       [104]byte
}

// colAt maps (i,j), 1 ≤ i ≤ j, to its column-major triangular index:
// column j holds rows 1..j contiguously.
func colAt(i, j int) int {
	return j*(j-1)/2 + i - 1
}

// SolverOption configures a Solver at construction.
type SolverOption func(*Solver)

// WithoutPruning disables the admissible-bound root pruning: every segment
// evaluates the full split cost of every root, exactly like the seed DP.
// Pruning is exact by construction (bounds only ever exclude roots that
// provably cannot beat an already-found split), so this exists purely as
// the reference semantics for the differential tests and as a debugging
// aid — costs are bit-identical in both modes.
func WithoutPruning() SolverOption {
	return func(s *Solver) { s.exhaustive = true }
}

// WithSolverWorkers bounds the DP fill's worker count (default GOMAXPROCS).
// Values below 1 are ignored. Callers embedding Optimal calls inside their
// own worker pools can set 1 to avoid oversubscription.
func WithSolverWorkers(n int) SolverOption {
	return func(s *Solver) {
		if n >= 1 {
			s.workers = n
		}
	}
}

// NewSolver builds the shared per-demand state: the flattened triangular
// boundary-traffic matrix, one triangular plane of n(n+1)/2 words. The
// first Optimal(k) call adds at most k+1 such planes of DP table (k-1 for
// the column-major table, two row mirrors; never more than n+2) plus a
// half-size root plane. At the n = 4096 limit a plane is 67 MB, so k = 4
// needs about 370 MB of table.
// Callers should keep n in the low thousands (the paper itself could not
// compute the optimum for its 10⁴-node Facebook trace; see Table 3).
func NewSolver(d *workload.Demand, opts ...SolverOption) (*Solver, error) {
	n := d.N
	if n < 1 {
		return nil, fmt.Errorf("statictree: empty demand")
	}
	if n > 4096 {
		return nil, fmt.Errorf("statictree: n=%d too large for the cubic DP (limit 4096); downscale the demand first", n)
	}
	sc, err := newSegmentCosts(d)
	if err != nil {
		return nil, err
	}
	s := &Solver{n: n, sc: sc, workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Optimal runs the DP at arity k and reconstructs an optimal tree. The
// cost is deterministic and independent of worker count and pruning mode
// (pruning is exact; the differential tests enforce bit-identity anyway);
// the returned tree is one cost-minimal witness, likewise independent of
// the worker count.
func (s *Solver) Optimal(k int) (*core.Tree, int64, error) {
	spec, cost, err := s.solve(k)
	if err != nil {
		return nil, 0, err
	}
	tree, err := core.Build(k, spec)
	if err != nil {
		return nil, 0, fmt.Errorf("statictree: DP produced an invalid tree: %w", err)
	}
	return tree, cost, nil
}

// solve runs the DP at arity k and returns the witness spec and its cost.
func (s *Solver) solve(k int) (*core.Spec, int64, error) {
	if k < 2 {
		return nil, 0, fmt.Errorf("statictree: arity %d < 2", k)
	}
	s.prepare(k)
	s.run()
	return s.treeSpec(1, s.n), s.get2(1, s.n, 1), nil
}

// prepare sizes the DP tables for arity k, recycling prior allocations.
func (s *Solver) prepare(k int) {
	s.k = min(k, s.n+1)
	s.planes = s.k - 1
	s.T = s.sc.t.size()
	s.col = grow(s.col, s.planes*s.T)
	rowPlanes := min(s.planes, 2)
	s.rows = grow(s.rows, rowPlanes*s.T)
	s.row1, s.rowTop = s.rows[:s.T], s.rows[(rowPlanes-1)*s.T:]
	if s.root == nil {
		s.root = make([]int32, s.T)
	}
	s.rootsEvaluated, s.rootsSkipped = 0, 0
}

func grow(b []int64, size int) []int64 {
	if cap(b) < size {
		return make([]int64, size)
	}
	return b[:size]
}

// get2 reads dp2(i,j,t) for t ≤ planes (min over up to t parts); empty
// segments are free.
func (s *Solver) get2(i, j, t int) int64 {
	if i > j {
		return 0
	}
	if t < 1 {
		return inf
	}
	return s.col[(t-1)*s.T+colAt(i, j)]
}

// splitCost is the cheapest way to hang the children of a node with id r
// whose segment is [i,j]: the left children cover [i,r-1], the right
// children cover [r+1,j], and the routing array has room for k children
// when both sides are used, or k-1 children plus the node's own id
// threshold when one side is empty (routing-based trees keep r in the
// routing array).
func (s *Solver) splitCost(i, r, j int) int64 {
	switch {
	case r == i && r == j:
		return 0
	case r == i:
		return s.get2(r+1, j, s.planes)
	case r == j:
		return s.get2(i, r-1, s.planes)
	default:
		best := int64(inf)
		for dl := 1; dl <= s.planes; dl++ {
			best = min(best, s.get2(i, r-1, dl)+s.get2(r+1, j, s.k-dl))
		}
		return best
	}
}

// splitCostBeat is splitCost for an interior root, with an early exit: as
// dl grows, the right side is allowed fewer parts, so its dp2 term only
// ever grows; once even the left side's unconstrained minimum (lmin, its
// k-1-part dp2) plus that right term reaches beat, no later dl can beat
// the incumbent and the scan stops. The returned value is the exact
// minimum whenever it is below beat (values ≥ beat may be partial, which
// is sound: callers only use them for `< beat` comparisons).
func (s *Solver) splitCostBeat(i, r, j int, beat int64) int64 {
	P, T := s.planes, s.T
	li := colAt(i, r-1)
	ri := colAt(r+1, j)
	lmin := s.col[(P-1)*T+li]
	best := int64(inf)
	for dl := 1; dl <= P; dl++ {
		rv := s.col[(P-dl)*T+ri] // dr = k'-dl parts
		if lmin+rv >= beat && best < inf {
			break
		}
		if v := s.col[(dl-1)*T+li] + rv; v < best {
			best = v
		}
	}
	return best
}

// run fills the table as a row-block wavefront. Cell (i,j) reads only
// row i to its left and column j below it, so rows are cut into blocks
// of blockRows, numbered from the bottom, and each block is filled column
// by column, bottom row first within a column. Workers take the next
// block from a shared counter; before filling column j a worker waits
// until the block below has completed column j (see blockProgress).
// Blocks are taken in order, so the block waited on is always held by a
// running worker, and each block does more work per column than the one
// below it, so after the pipeline fills the upper worker rarely waits.
//
// A per-diagonal fan-out synchronizes on a barrier after every one of the
// n diagonals, and each diagonal touches every row and column of the
// table, so two workers ran it no faster than one. The wavefront
// synchronizes once per block column, and a block's rows and the column
// being filled stay in cache.
//
// With one worker (or one block) the same block-column order runs
// serially, without the progress counters.
func (s *Solver) run() {
	blocks := (s.n + blockRows - 1) / blockRows
	workers := max(min(s.workers, blocks), 1)
	if len(s.fill) < workers {
		s.fill = make([]fillWorker, workers)
		for w := range s.fill {
			s.fill[w].lb = make([]int64, s.n)
		}
	}
	for w := range s.fill {
		s.fill[w].evaluated, s.fill[w].skipped = 0, 0
	}
	if workers == 1 {
		for b := 0; b < blocks; b++ {
			s.fillBlock(b, &s.fill[0], false)
		}
	} else {
		if len(s.progress) < blocks {
			s.progress = make([]blockProgress, blocks)
			for b := range s.progress {
				s.progress[b].wake = make(chan struct{}, 1)
			}
		}
		for b := range s.progress {
			s.progress[b].col.Store(0)
		}
		var next atomic.Int64
		work := func(fw *fillWorker) {
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					return
				}
				s.fillBlock(b, fw, true)
			}
		}
		var wg sync.WaitGroup
		wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			fw := &s.fill[w]
			go func() {
				defer wg.Done()
				work(fw)
			}()
		}
		work(&s.fill[0])
		wg.Wait()
	}
	for w := range s.fill {
		s.rootsEvaluated += s.fill[w].evaluated
		s.rootsSkipped += s.fill[w].skipped
	}
}

// fillBlock fills wavefront block b, rows [n-(b+1)·blockRows+1, n-b·blockRows]
// clipped at 1, column by column. With wave set it publishes its progress
// after each column and, for columns reaching above the block, first
// waits for the block below to complete that column.
func (s *Solver) fillBlock(b int, w *fillWorker, wave bool) {
	hi := s.n - b*blockRows
	lo := max(1, hi-blockRows+1)
	for j := lo; j <= s.n; j++ {
		if wave && j > hi {
			s.progress[b-1].waitFor(j)
		}
		for i := min(j, hi); i >= lo; i-- {
			s.fillSegment(i, j, w)
		}
		if wave {
			s.progress[b].publish(j)
		}
	}
}

// spinWaits is how many times a waiting worker polls the block below
// before parking: a few microseconds, about one column step of a block.
const spinWaits = 4096

// waitFor returns once the block has completed column j. It spins
// briefly, then parks on wake, so that a stalled producer — preempted,
// or queued behind a GC worker on its processor — can be picked up by
// the waiter's processor instead of being starved by a yielding spin.
func (p *blockProgress) waitFor(j int) {
	for spin := 0; p.col.Load() < int64(j); spin++ {
		if spin < spinWaits {
			continue
		}
		// The flag is set before the re-check and publish stores col
		// before reading the flag, so one of the two sees the other.
		p.waiting.Store(true)
		if p.col.Load() < int64(j) {
			<-p.wake
		}
		p.waiting.Store(false)
	}
}

// publish records that the block has completed column j and wakes its
// waiter if it parked. A token left over from an earlier wake only makes
// a later waitFor re-check.
func (p *blockProgress) publish(j int) {
	p.col.Store(int64(j))
	if p.waiting.Load() {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// fillSegment computes dp2(i,j,·) and root(i,j); row i left of j and
// column j below i are already filled.
//
// t = 1 is the root search. A classic Knuth-style window
// r*(i,j-1) ≤ r ≤ r*(i+1,j) would be UNSOUND here: the boundary-traffic
// cost W violates the quadrangle inequality, and root monotonicity
// genuinely fails (TestRootMonotonicityCounterexample pins a 4-node demand
// where the optimal root of [1,4] lies outside the window). Instead the
// pruning is branch-and-bound with an admissible bound — exact by
// construction, falling back to full evaluation exactly for the roots the
// bound cannot exclude (see prunedRootSearch).
//
// t ≥ 2 peels the first child tree off the segment, directly in
// prefix-minimum form: a forest of ≤ t trees is either one tree (the
// t-1 entry already covers it) or a first tree [i,l] plus a forest of
// ≤ t-1 trees on [l+1,j]. The first trees are row i of plane 1, the
// rests column j of plane t-1: both contiguous.
func (s *Solver) fillSegment(i, j int, w *fillWorker) {
	P, T := s.planes, s.T
	base := s.sc.t.at(i, j)
	cb := colAt(i, j)
	var best int64
	var bestR int
	switch {
	case i == j:
		best, bestR = 0, i
	case s.exhaustive:
		best, bestR = inf, i
		for r := i; r <= j; r++ {
			if v := s.splitCost(i, r, j); v < best {
				best, bestR = v, r
			}
		}
	default:
		best, bestR = s.prunedRootSearch(i, j, w)
	}
	s.root[base] = int32(bestR)
	v := best + s.sc.w[base]
	s.col[cb] = v
	s.row1[base] = v
	if P == 1 {
		return
	}
	first := s.row1[base-(j-i) : base] // dp2(i, l, 1), l = i..j-1
	for t := 2; t <= P; t++ {
		prev := s.col[(t-2)*T+cb:]
		// prev[0]: a forest of ≤ t-1 trees is also one of ≤ t;
		// prev[1+x] = dp2(i+1+x, j, t-1).
		s.col[(t-1)*T+cb] = minSum(prev[0], first, prev[1:])
	}
	s.rowTop[base] = s.col[(P-1)*T+cb]
}

// minSum returns min(b, min over x of a[x]+c[x]) for len(c) ≥ len(a).
// Four independent accumulators keep the loop-carried compare-and-move
// chain off the critical path.
func minSum(b int64, a, c []int64) int64 {
	c = c[:len(a)]
	b0, b1, b2, b3 := b, b, b, b
	x := 0
	for ; x+4 <= len(a); x += 4 {
		a4, c4 := a[x:x+4:x+4], c[x:x+4:x+4]
		b0 = min(b0, a4[0]+c4[0])
		b1 = min(b1, a4[1]+c4[1])
		b2 = min(b2, a4[2]+c4[2])
		b3 = min(b3, a4[3]+c4[3])
	}
	for ; x < len(a); x++ {
		b0 = min(b0, a[x]+c[x])
	}
	return min(b0, b1, b2, b3)
}

// prunedRootSearch finds the minimum split cost over all roots of [i,j]
// (i < j) and one argmin. Edge roots cost a single read. For each interior
// root r, dp2(i,r-1,k-1) + dp2(r+1,j,k-1) is a lower bound on its split
// cost — it relaxes the dl+dr ≤ k routing-array constraint to dl,dr ≤ k-1
// — and dp2's monotonicity in t makes the bound admissible. The search
// bounds every interior root (a row walk of the top plane plus a column
// walk of its mirror), evaluates the most promising one exactly to seed a
// tight incumbent, then runs the exact O(k) split only for roots whose
// bound beats the incumbent. Worst case (bounds all tie, e.g. near-uniform
// demands) it degrades gracefully to the seed DP's full O(len·k) scan; on
// skewed demands it removes the k factor.
func (s *Solver) prunedRootSearch(i, j int, w *fillWorker) (int64, int) {
	top := s.col[(s.planes-1)*s.T:]
	row := s.rowTop[s.sc.t.at(i, i):] // row[x] = dp2(i, i+x, k'-1)
	cj := colAt(0, j)                 // top[cj+r] = dp2(r, j, k'-1)
	best := top[cj+i+1]               // r = i: right side [i+1,j] gets k-1 slots
	bestR := i
	if v := row[j-1-i]; v < best { // r = j: left side [i,j-1]
		best, bestR = v, j
	}
	if j-i == 1 {
		return best, bestR
	}
	// Interior r = i+1+x: left [i, r-1], right [r+1, j].
	left := row[:j-i-1]
	right := top[cj+i+2 : cj+j+1]
	right = right[:len(left)]
	lb := w.lb[:len(left)]
	minLB, minX := int64(inf), 0
	for x, a := range left {
		v := a + right[x]
		lb[x] = v
		if v < minLB {
			minLB, minX = v, x
		}
	}
	if minLB < best {
		w.evaluated++
		if v := s.splitCostBeat(i, i+1+minX, j, best); v < best {
			best, bestR = v, i+1+minX
		}
	} else {
		w.skipped++
	}
	for x, v := range lb {
		if x == minX {
			continue // counted in the seeding step above
		}
		if v >= best {
			w.skipped++
			continue
		}
		w.evaluated++
		if v := s.splitCostBeat(i, i+1+x, j, best); v < best {
			best, bestR = v, i+1+x
		}
	}
	return best, bestR
}

// bestRootSplit re-derives the argmin of the 1-tree cost on [i,j] from the
// stored root: the root id and the left/right child counts. Recomputing
// the split on demand keeps the split counts out of the tables.
func (s *Solver) bestRootSplit(i, j int) (r, dl, dr int) {
	target := s.get2(i, j, 1) - s.sc.W(i, j)
	r = int(s.root[s.sc.t.at(i, j)])
	leftEmpty := r == i
	rightEmpty := r == j
	switch {
	case leftEmpty && rightEmpty:
		if target == 0 {
			return r, 0, 0
		}
	case leftEmpty:
		if s.get2(r+1, j, s.planes) == target {
			return r, 0, s.minParts(r+1, j, s.planes)
		}
	case rightEmpty:
		if s.get2(i, r-1, s.planes) == target {
			return r, s.minParts(i, r-1, s.planes), 0
		}
	default:
		for dl := 1; dl <= s.planes; dl++ {
			if s.get2(i, r-1, dl)+s.get2(r+1, j, s.k-dl) == target {
				return r, s.minParts(i, r-1, dl), s.minParts(r+1, j, s.k-dl)
			}
		}
	}
	panic(fmt.Sprintf("statictree: stored root %d does not reproduce the 1-tree cost on [%d,%d]", r, i, j))
}

// minParts returns the smallest part count t ≤ maxT achieving
// dp2[i][j][maxT]; the optimal forest then uses exactly t trees.
func (s *Solver) minParts(i, j, maxT int) int {
	want := s.get2(i, j, maxT)
	for t := 1; t <= maxT; t++ {
		if s.get2(i, j, t) == want {
			return t
		}
	}
	panic("statictree: dp2 value unreachable")
}

// forestParts splits [i,j] into exactly t consecutive segments reproducing
// dp2[i][j][t]; t must be minimal for the value (minParts), which
// guarantees the reconstruction uses all t parts.
func (s *Solver) forestParts(i, j, t int) [][2]int {
	if t == 1 {
		return [][2]int{{i, j}}
	}
	want := s.get2(i, j, t)
	for l := i; l < j; l++ {
		rest := s.get2(l+1, j, t-1)
		if s.get2(i, l, 1)+rest == want {
			tt := s.minParts(l+1, j, t-1)
			return append([][2]int{{i, l}}, s.forestParts(l+1, j, tt)...)
		}
	}
	panic("statictree: forest split unreachable")
}

// treeSpec reconstructs the optimal tree on [i,j] as a core.Spec. The root
// id always appears as a routing element (routing-based construction): the
// threshold between the last left child and the first right child is r,
// and when one side is empty r still delimits an empty slot.
func (s *Solver) treeSpec(i, j int) *core.Spec {
	r, dl, dr := s.bestRootSplit(i, j)
	spec := &core.Spec{ID: r}
	if dl > 0 {
		parts := s.forestParts(i, r-1, dl)
		for idx, part := range parts {
			spec.Children = append(spec.Children, s.treeSpec(part[0], part[1]))
			if idx < len(parts)-1 {
				spec.Thresholds = append(spec.Thresholds, part[1])
			} else {
				spec.Thresholds = append(spec.Thresholds, r)
			}
		}
	} else if dr > 0 {
		// Empty slot holding just the root id keeps the tree routing-based.
		spec.Thresholds = append(spec.Thresholds, r)
		spec.Children = append(spec.Children, nil)
	}
	if dr > 0 {
		parts := s.forestParts(r+1, j, dr)
		for idx, part := range parts {
			spec.Children = append(spec.Children, s.treeSpec(part[0], part[1]))
			if idx < len(parts)-1 {
				spec.Thresholds = append(spec.Thresholds, part[1])
			}
		}
	} else if dl > 0 {
		// The slot above the trailing threshold r stays empty.
		spec.Children = append(spec.Children, nil)
	}
	if len(spec.Children) == 0 {
		spec.Children = nil
	}
	return spec
}
