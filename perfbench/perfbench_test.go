package main

import (
	"reflect"
	"testing"

	"github.com/ksan-net/ksan/internal/hist"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

func TestCoveredBy(t *testing.T) {
	outer := interval{0, 100}
	ivs := []interval{{10, 20}, {15, 30}, {50, 60}, {-5, 2}, {95, 120}, {40, 40}}
	// [0,2) + [10,30) + [50,60) + [95,100)
	if got, want := coveredBy(outer, ivs), int64(2+20+10+5); got != want {
		t.Fatalf("coveredBy = %d, want %d", got, want)
	}
	if got := coveredBy(outer, nil); got != 0 {
		t.Fatalf("coveredBy(no intervals) = %d, want 0", got)
	}
}

func TestLaneSelfTimeAndParents(t *testing.T) {
	tr := newTracer()
	l := tr.newLane(7)
	l.begin(spanServe)
	l.begin(spanAdjust)
	l.begin(spanOptimal)
	l.end()
	l.end()
	l.end()
	serveAgg, adj, opt := l.aggs[spanServe], l.aggs[spanAdjust], l.aggs[spanOptimal]
	if serveAgg.count != 1 || adj.count != 1 || opt.count != 1 {
		t.Fatalf("counts %d/%d/%d, want 1 each", serveAgg.count, adj.count, opt.count)
	}
	if serveAgg.self != serveAgg.total-adj.total || adj.self != adj.total-opt.total || opt.self != opt.total {
		t.Fatalf("self times do not subtract children: serve %+v adjust %+v optimal %+v", serveAgg, adj, opt)
	}
	// The rare Optimal span keeps its whole ancestry, whatever the sample.
	if len(l.kept) != 3 {
		t.Fatalf("kept %d spans, want 3", len(l.kept))
	}
	byName := map[spanName]span{}
	for _, s := range l.kept {
		byName[s.Name] = s
	}
	if byName[spanServe].Parent != 7 || byName[spanAdjust].Parent != byName[spanServe].ID ||
		byName[spanOptimal].Parent != byName[spanAdjust].ID {
		t.Fatalf("parent chain broken: %+v", l.kept)
	}
	if len(l.top) != 1 || l.busy() != serveAgg.total {
		t.Fatalf("top-level intervals %v, busy %d, want the one serve span of %d", l.top, l.busy(), serveAgg.total)
	}
}

func TestLaneSamplesPerRequestSpans(t *testing.T) {
	l := newTracer().newLane(0)
	for i := 0; i < 2*sampleEvery; i++ {
		l.begin(spanServe)
		l.begin(spanAdjust)
		l.end()
		l.end()
	}
	if got := len(l.kept); got != 4 {
		t.Fatalf("kept %d spans of %d request trees, want 2 trees of 2", got, 2*sampleEvery)
	}
	if l.aggs[spanServe].count != 2*sampleEvery {
		t.Fatalf("aggregate counts %d serves, want every one", l.aggs[spanServe].count)
	}
}

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	var h hist.Hist
	for i := 0; i < 2000; i++ {
		h.Observe(int64(i))
	}
	q, _, ok := tailPercentile(&h)
	if !ok || q != 0.99 {
		t.Fatalf("tail of 2000 samples = p%v (ok=%v), want p99: p99.9 has only 2 samples beyond it", q*100, ok)
	}
	var small hist.Hist
	small.Observe(1)
	if _, _, ok := tailPercentile(&small); ok {
		t.Fatalf("one sample has no percentile with ten beyond it")
	}
}

func TestFaultPlanAvoidsCheckpointBoundaries(t *testing.T) {
	local := [][]sim.Request{make([]sim.Request, 9*1024), make([]sim.Request, 5000)}
	plan := faultPlan(local)
	if len(plan.Events) != 2*crashesPerShard {
		t.Fatalf("%d events, want %d", len(plan.Events), 2*crashesPerShard)
	}
	last := map[int]int64{}
	for _, ev := range plan.Events {
		if ev.At%plan.CheckpointEvery == 0 || ev.At <= last[ev.Shard] || ev.At >= int64(len(local[ev.Shard])) {
			t.Fatalf("event %+v: on a checkpoint boundary, out of order, or past the shard's last serve", ev)
		}
		last[ev.Shard] = ev.At
	}
}

func TestTracesAreSeeded(t *testing.T) {
	for _, name := range []string{"splay-k32", "lazy-opt", "faulted-k5"} {
		r, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := r.trace(5), r.trace(5), r.trace(6)
		if len(a.Reqs) != r.requests || a.N != r.n {
			t.Fatalf("%s: %d requests on %d nodes, want %d on %d", name, len(a.Reqs), a.N, r.requests, r.n)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: one seed gave two traces", name)
		}
		if reflect.DeepEqual(a.Reqs, c.Reqs) {
			t.Fatalf("%s: two seeds gave one trace", name)
		}
	}
	if _, err := lookup("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// smallRecipe is a faulted 5-ary workload small enough for a test.
func smallRecipe(frozen bool) *recipe {
	r := &recipe{name: "test", n: 127, shards: 2, clients: 1, requests: 6000, faulted: !frozen, frozen: frozen,
		label: "test", tree: balanced(5), trigger: policy.Always, adjuster: splay,
		trace: func(seed int64) workload.Trace { return workload.Temporal(127, 6000, 0.5, seed) }}
	if frozen {
		r.trigger = policy.Never
		r.adjuster = func(*lane) policy.Adjuster { return policy.None() }
	}
	return r
}

// The decorators must leave the serving layer on the path it takes
// without them: owner loops, checkpoints and recoveries for a faulted
// net, the lock-free oracle for a frozen one, with equal costs.
func TestTracedNetKeepsTheServePath(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		b, err := setUp(smallRecipe(frozen), 3)
		if err != nil {
			t.Fatal(err)
		}
		plain, _, err := b.serveRound(b.plainMaker())
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		main := tr.newLane(0)
		rd := &tracedRound{}
		main.begin(spanRun)
		traced, _, err := b.serveRound(b.tracedMaker(tr, main, rd))
		main.end()
		if err != nil {
			t.Fatal(err)
		}
		rd.stats = traced
		b.checkSpans(rd)
		if len(b.failures) != 0 {
			t.Fatalf("frozen=%v: %v", frozen, b.failures)
		}
		if plain.Routing != traced.Routing || plain.Adjust != traced.Adjust {
			t.Fatalf("frozen=%v: traced costs %d/%d, untraced %d/%d", frozen, traced.Routing, traced.Adjust, plain.Routing, plain.Adjust)
		}
		serves := tr.total(spanServe).count
		if frozen && serves != 0 {
			t.Fatalf("frozen net served %d requests on an owner loop; want the oracle path", serves)
		}
		if !frozen && (serves == 0 || tr.total(spanRecovery).count != int64(len(b.plan.Events))) {
			t.Fatalf("faulted net: %d serves, %d recoveries, want owner serves and %d recoveries",
				serves, tr.total(spanRecovery).count, len(b.plan.Events))
		}
	}
}

func TestCheckReportsMismatches(t *testing.T) {
	b, err := setUp(smallRecipe(false), 3)
	if err != nil {
		t.Fatal(err)
	}
	b.ref.adjust++
	b.ref.shard[1].Routing++
	if _, _, err := b.serveRound(b.plainMaker()); err != nil {
		t.Fatal(err)
	}
	if len(b.failures) != 2 {
		t.Fatalf("failures %q, want the total and the shard mismatch", b.failures)
	}
}
