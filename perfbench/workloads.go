package main

import (
	"fmt"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/serve"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// recipe is one benchmark workload: the network composition each shard
// runs, the request stream, and the closed-loop shape that serves it.
type recipe struct {
	name     string
	n        int
	shards   int
	clients  int // closed-loop client routines (capped at nproc)
	requests int // requests per serving round
	frozen   bool
	faulted  bool
	label    string
	tree     func(n int) (*core.Tree, error)
	trigger  func() policy.Trigger
	// adjuster returns the composition's adjuster; when l is non-nil the
	// rebuild builder, if any, records its spans on l.
	adjuster func(l *lane) policy.Adjuster
	trace    func(seed int64) workload.Trace
}

func balanced(k int) func(n int) (*core.Tree, error) {
	return func(n int) (*core.Tree, error) { return core.NewBalanced(n, k) }
}

func splay(*lane) policy.Adjuster { return policy.Splay() }

var recipes = []*recipe{
	{
		name: "splay-k32", n: 1023, shards: 1, clients: 1, requests: 100_000,
		label: "32-ary SplayNet", tree: balanced(32), trigger: policy.Always, adjuster: splay,
		trace: func(seed int64) workload.Trace {
			return workload.MustCollect(workload.UniformGen(1023, 100_000, seed))
		},
	},
	{
		name: "static-centroid", n: 131072, shards: 2, clients: 2, requests: 2_000_000, frozen: true,
		label:   "centroid 4-ary tree",
		tree:    func(n int) (*core.Tree, error) { return statictree.Centroid(n, 4) },
		trigger: policy.Never, adjuster: func(*lane) policy.Adjuster { return policy.None() },
		trace: func(seed int64) workload.Trace {
			return workload.MustCollect(workload.ZipfGen(131072, 2_000_000, 0.9, seed))
		},
	},
	{
		name: "lazy-opt", n: 256, shards: 1, clients: 1, requests: 300_000,
		label: "4-ary lazy [alpha(200000)×rebuild-opt]", tree: balanced(4),
		trigger: func() policy.Trigger { return policy.Alpha(200_000) },
		adjuster: func(l *lane) policy.Adjuster {
			b := policy.Builder(statictree.Optimal)
			if l != nil {
				b = tracedBuilder(l, b)
			}
			return policy.Rebuild("optimal", b)
		},
		trace: func(seed int64) workload.Trace {
			// Hotspot drift: eight phases, each a fresh hot set. At this
			// length every seed from 1 to 40 triggers exactly eight
			// rebuilds per round (34,500 per phase already gives seven on
			// some), so the DP count does not vary with the seed.
			const phases, perPhase = 8, 37_500
			ph := make([]workload.Phase, phases)
			for i := range ph {
				ph[i] = workload.Phase{Gen: workload.HotspotGen(256, perPhase, 0.1, 0.9, seed*phases+int64(i)), M: perPhase}
			}
			g, err := workload.PhasedGen("hotspot-drift", ph)
			if err != nil {
				panic(err) // unreachable: every phase is well-formed
			}
			return workload.MustCollect(g)
		},
	},
	{
		// Three shards, not two: with two, half the requests cross shards
		// and the median latency falls in the gap between one and two
		// owner round trips, where it jumps from run to run.
		name: "faulted-k5", n: 1023, shards: 3, clients: 1, requests: 300_000, faulted: true,
		label: "5-ary SplayNet", tree: balanced(5), trigger: policy.Always, adjuster: splay,
		trace: func(seed int64) workload.Trace {
			return workload.MustCollect(workload.TemporalGen(1023, 300_000, 0.75, seed))
		},
	},
}

func lookup(name string) (*recipe, error) {
	for _, r := range recipes {
		if r.name == name {
			return r, nil
		}
	}
	names := make([]string, len(recipes))
	for i, r := range recipes {
		names[i] = r.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// newNet composes one shard network of n nodes. With a non-nil lane the
// adjuster (and the rebuild builder) record spans on it.
func (r *recipe) newNet(n int, l *lane) (*policy.Net, error) {
	t, err := r.tree(n)
	if err != nil {
		return nil, err
	}
	adj := r.adjuster(l)
	if l != nil {
		adj = tracedAdjuster{Adjuster: adj, lane: l}
	}
	return policy.New(r.label, t, r.trigger(), adj)
}

// crashesPerShard is how many scripted crashes faulted-k5 spreads over
// each shard's local serve sequence.
const crashesPerShard = 8

// faultPlan spreads crashesPerShard crashes evenly over each shard's local
// sequence, each recovering on the next arrival, with a checkpoint every
// serve.DefaultCheckpointEvery local serves. No deadlines and no
// rejections: every request is served, so no request fails.
func faultPlan(local [][]sim.Request) *serve.FaultPlan {
	plan := &serve.FaultPlan{CheckpointEvery: serve.DefaultCheckpointEvery}
	for s, seq := range local {
		for j := 1; j <= crashesPerShard; j++ {
			at := int64(j * len(seq) / (crashesPerShard + 1))
			if at%plan.CheckpointEvery == 0 {
				at++ // mid-interval, so the recovery replays a log
			}
			plan.Events = append(plan.Events, serve.FaultEvent{Shard: s, At: at, Kind: serve.FaultCrash})
		}
	}
	return plan
}
