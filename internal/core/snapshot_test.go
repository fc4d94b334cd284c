package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func splayedTree(t *testing.T, n, k int, seed int64) *Tree {
	t.Helper()
	tr, err := NewBalanced(n, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 200; i++ {
		u, v := 1+rng.Intn(n), 1+rng.Intn(n)
		if u == v {
			continue
		}
		a, b := tr.NodeByID(u), tr.NodeByID(v)
		_, w := tr.DistanceLCA(a, b)
		tr.SplayUntilParent(a, w.Parent())
		tr.SplayUntilParent(b, a)
	}
	return tr
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, cfg := range []struct{ n, k int }{{40, 2}, {90, 3}, {130, 5}} {
		tr := splayedTree(t, cfg.n, cfg.k, int64(cfg.n))
		snap := tr.Snapshot()
		back, err := FromSnapshot(snap)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", cfg.n, cfg.k, err)
		}
		if got, want := back.Render(), tr.Render(); got != want {
			t.Fatalf("n=%d k=%d: restored rendering diverges\n%s\nvs\n%s", cfg.n, cfg.k, got, want)
		}
		gp, wp := back.Parents(), tr.Parents()
		for id := range gp {
			if gp[id] != wp[id] {
				t.Fatalf("n=%d k=%d: restored parent of %d is %d, want %d", cfg.n, cfg.k, id, gp[id], wp[id])
			}
		}
		for q := 0; q < 50; q++ {
			u, v := 1+q%cfg.n, 1+(q*7)%cfg.n
			if got, want := back.DistanceID(u, v), tr.DistanceID(u, v); got != want {
				t.Fatalf("n=%d k=%d: restored DistanceID(%d,%d) = %d, want %d", cfg.n, cfg.k, u, v, got, want)
			}
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	tr := splayedTree(t, 64, 3, 5)
	snap := tr.Snapshot()
	before := tr.Render()
	// Mutating the tree must not disturb the snapshot...
	tr.SplayUntilParent(tr.NodeByID(50), nil)
	back, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.Render() != before {
		t.Fatal("snapshot changed when the source tree was mutated")
	}
	// ...and mutating a restored tree must not disturb the snapshot either.
	back.SplayUntilParent(back.NodeByID(12), nil)
	back2, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if back2.Render() != before {
		t.Fatal("snapshot changed when a restored tree was mutated")
	}
}

// snapshotCorruptions returns labelled corruptions of tr's snapshot that
// FromSnapshot must reject.
func snapshotCorruptions(tr *Tree) []struct {
	label string
	snap  Snapshot
} {
	base := tr.Snapshot()
	corrupt := func(f func(s *Snapshot)) Snapshot {
		s := tr.Snapshot()
		f(&s)
		return s
	}
	return []struct {
		label string
		snap  Snapshot
	}{
		{"root out of range", corrupt(func(s *Snapshot) { s.Root = int32(s.N + 1) })},
		{"zero root", corrupt(func(s *Snapshot) { s.Root = 0 })},
		{"truncated parents", corrupt(func(s *Snapshot) { s.Parent = s.Parent[:len(s.Parent)-1] })},
		{"truncated spans", corrupt(func(s *Snapshot) { s.RC = s.RC[:len(s.RC)-1] })},
		{"child out of range", corrupt(func(s *Snapshot) { s.RC[0] = 99 })},
		{"parent cycle", corrupt(func(s *Snapshot) { s.Parent[base.Root] = base.Root })},
		{"root as child", corrupt(func(s *Snapshot) { s.RC[0] = s.Root })},
		{"bad arity", corrupt(func(s *Snapshot) { s.K = 1 })},
	}
}

func TestFromSnapshotRejectsCorruption(t *testing.T) {
	tr := splayedTree(t, 40, 3, 9)
	for _, tc := range snapshotCorruptions(tr) {
		if _, err := FromSnapshot(tc.snap); err == nil {
			t.Errorf("%s: corrupted snapshot accepted", tc.label)
		} else if !strings.HasPrefix(err.Error(), "core:") {
			t.Errorf("%s: error %q does not carry the package prefix", tc.label, err)
		}
	}
	if _, err := FromSnapshot(tr.Snapshot()); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// int32Bytes and bytesInt32 encode the snapshot arrays as fuzz inputs:
// little-endian, four bytes per element (a trailing partial element is
// dropped).
func int32Bytes(v []int32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	return b
}

func bytesInt32(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

// distinctElements reports whether every routing element of tr is unique.
// Validate admits an element equal to the top of its interval, and when
// that top is an ancestor's element the two coincide (some static
// builders emit such trees). A rotation merging both copies cannot give
// every node k−1 distinct elements, so only trees with distinct elements
// can be rotated. Rotations preserve distinctness, and FuzzFromSnapshot
// checks it on its seed trees.
func distinctElements(tr *Tree) bool {
	var ths []int32
	for id := 1; id <= tr.n; id++ {
		sp := tr.span(int32(id))
		for i := 1; i < len(sp); i += 2 {
			ths = append(ths, sp[i])
		}
	}
	sort.Slice(ths, func(a, b int) bool { return ths[a] < ths[b] })
	for i := 1; i < len(ths); i++ {
		if ths[i] == ths[i-1] {
			return false
		}
	}
	return true
}

// FuzzFromSnapshot feeds arbitrary snapshots to FromSnapshot. Each input
// must either be rejected with an error, or yield a tree that validates
// and round-trips through Snapshot bit-identically (Parent[0] is unused
// and normalized to 0). A restored tree with distinct routing elements
// must also keep validating while every node, in a seeded random order,
// is semi-splayed once and then splayed to the root: the tree carries
// nothing but its spans and parent links, so this checks that rebuilds
// find every on-path child slot from the parent spans alone.
func FuzzFromSnapshot(f *testing.F) {
	add := func(s Snapshot, seed int64) {
		f.Add(s.K, s.N, s.Root, int32Bytes(s.Parent), int32Bytes(s.RC), seed)
	}
	const n = 20
	for _, k := range []int{2, 5, 32} {
		makers := []func() (*Tree, error){
			func() (*Tree, error) { return NewBalanced(n, k) },
			func() (*Tree, error) { return NewRandom(n, k, int64(k)) },
			func() (*Tree, error) { return NewPath(n, k) },
		}
		for i, mk := range makers {
			tr, err := mk()
			if err != nil {
				f.Fatal(err)
			}
			add(tr.Snapshot(), int64(k+i))
			rng := rand.New(rand.NewSource(int64(k*10 + i)))
			for j := 0; j < 30; j++ {
				tr.SplayUntilParent(tr.NodeByID(1+rng.Intn(n)), nil)
			}
			if !distinctElements(tr) {
				f.Fatalf("k=%d seed tree %d repeats a routing element; its splays would go unchecked", k, i)
			}
			add(tr.Snapshot(), int64(k-i))
			for _, tc := range snapshotCorruptions(tr) {
				add(tc.snap, 1)
			}
		}
	}
	f.Fuzz(func(t *testing.T, k, n int, root int32, parent, rc []byte, seed int64) {
		in := Snapshot{K: k, N: n, Root: root, Parent: bytesInt32(parent), RC: bytesInt32(rc)}
		tr, err := FromSnapshot(in)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted snapshot fails Validate: %v", err)
		}
		want := in
		want.Parent = append([]int32(nil), in.Parent...)
		want.Parent[0] = 0
		if got := tr.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip diverges:\n got %+v\nwant %+v", got, want)
		}
		if !distinctElements(tr) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		for _, id := range rng.Perm(tr.N()) {
			x := tr.NodeByID(id + 1)
			// A splay to the root runs the d=2 rebuild only at the root;
			// one semi-splay first runs it below the root when x has a
			// grandparent.
			if p := x.Parent(); p != nil && p.Parent() != nil {
				if err := tr.SemiSplay(x); err != nil {
					t.Fatal(err)
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("after semi-splaying %d: %v", id+1, err)
				}
			}
			tr.SplayUntilParent(x, nil)
			if err := tr.Validate(); err != nil {
				t.Fatalf("after splaying %d to the root: %v", id+1, err)
			}
			if tr.Root() != x {
				t.Fatalf("splayed %d but the root is %d", id+1, tr.Root().ID())
			}
		}
	})
}
