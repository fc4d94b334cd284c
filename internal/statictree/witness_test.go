package statictree

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ksan-net/ksan/internal/workload"
)

var updateWitness = flag.Bool("update-witness", false, "rewrite testdata/optimal_witness.golden from the current solver")

const witnessGolden = "testdata/optimal_witness.golden"

// witnessDemand builds the seeded demand of one witness-corpus family at
// size n. Generators need two nodes, so every family at n = 1 is the
// empty demand.
func witnessDemand(family string, n int) *workload.Demand {
	if n < 2 {
		return &workload.Demand{N: n}
	}
	m, seed := 40*n, int64(1000+n)
	switch family {
	case "uniform":
		return workload.DemandFromTrace(workload.Uniform(n, m, seed))
	case "zipf":
		return workload.DemandFromTrace(workload.Zipf(n, m, 1.2, seed))
	case "hotspot":
		// At least one hot and one cold node at every size.
		frac := math.Max(0.1, 1.5/float64(n))
		return workload.DemandFromTrace(workload.MustCollect(workload.HotspotGen(n, m, frac, 0.9, seed)))
	case "temporal":
		return workload.DemandFromTrace(workload.Temporal(n, m, 0.75, seed))
	}
	panic("unknown witness family " + family)
}

// renderWitnessCorpus solves every (family, n, k) of the corpus and
// renders each optimal tree with its cost.
func renderWitnessCorpus(tb testing.TB) []byte {
	tb.Helper()
	var b bytes.Buffer
	for _, family := range []string{"uniform", "zipf", "hotspot", "temporal"} {
		for _, n := range []int{1, 2, 3, 17, 64} {
			s, err := NewSolver(witnessDemand(family, n))
			if err != nil {
				tb.Fatal(err)
			}
			for _, k := range []int{2, 3, 4, 8} {
				tree, cost, err := s.Optimal(k)
				if err != nil {
					tb.Fatalf("%s n=%d k=%d: %v", family, n, k, err)
				}
				fmt.Fprintf(&b, "== %s n=%d k=%d cost=%d\n%s", family, n, k, cost, tree.Render())
			}
		}
	}
	return b.Bytes()
}

// TestOptimalWitnessGolden pins which optimal tree the solver returns, not
// only its cost: consumers that route on the rebuilt tree (the lazy
// optimal-rebuild policy) depend on the tie-break among equal-cost
// optima, so any change to the fill order, the pruning or the
// reconstruction must keep these renders byte-identical. Regenerate with
// -update-witness only for a deliberate change of the tie-break.
func TestOptimalWitnessGolden(t *testing.T) {
	got := renderWitnessCorpus(t)
	if *updateWitness {
		if err := os.MkdirAll(filepath.Dir(witnessGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(witnessGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(witnessGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	header := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			header = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("witness differs from %s at line %d (case %q):\n got: %s\nwant: %s", witnessGolden, i+1, header, gl[i], wl[i])
		}
	}
	t.Fatalf("witness differs from %s in length: %d lines, want %d", witnessGolden, len(gl), len(wl))
}
