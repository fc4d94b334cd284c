package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/hist"
	"github.com/ksan-net/ksan/internal/serve"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// layers holds the single-threaded timings of each layer's exported call
// on the workload's own inputs, measured untraced.
type layers struct {
	splitNs, routeNs, distNs, observeNs float64 // per call
	distCallsPerReq                     float64 // oracle lookups per request (frozen workloads)
	oracleBuild, centroidBuild          time.Duration
	// Sequential Net.Serve over every shard's subsequence: untraced, and
	// again with the adjuster and the rebuild builder traced. The traced
	// replay splits serve time into route (everything outside Adjust,
	// including the span bookkeeping) and adjust.
	serve, tracedServe       time.Duration
	adjust, optimal          time.Duration // inside Adjuster.Adjust, inside the builder
	fires, solves, rotations int64
}

// sink keeps measured loops from being optimized away.
var sink int64

// measureLayers times each layer's exported call on the workload's inputs.
func (b *bench) measureLayers() (layers, error) {
	const reps = 5
	var ly layers
	m := float64(len(b.tr.Reqs))

	ly.splitNs = float64(medianTime(reps, func() {
		for i := 0; i < b.clients; i++ {
			for rq := range workload.SplitGen(b.tr, i, b.clients).Requests() {
				sink += int64(rq.Src)
			}
		}
	})) / m

	ly.routeNs = float64(medianTime(reps, func() {
		var rt serve.Route
		for _, rq := range b.tr.Reqs {
			b.part.Route(rq.Src, rq.Dst, &rt)
			sink += int64(rt.A1)
		}
	})) / m

	trees := make([]*core.Tree, len(b.local))
	ixs := make([]*statictree.DistIndex, len(b.local))
	var calls int64
	for s := range b.local {
		t, err := b.r.tree(b.part.Size(s))
		if err != nil {
			return ly, err
		}
		trees[s], ixs[s] = t, statictree.NewDistIndex(t)
		for _, q := range b.local[s] {
			if q.Src != q.Dst {
				calls++
			}
		}
	}
	ly.distCallsPerReq = float64(calls) / m
	ly.distNs = float64(medianTime(reps, func() {
		for s, seq := range b.local {
			ix := ixs[s]
			for _, q := range seq {
				if q.Src != q.Dst {
					sink += ix.Dist(q.Src, q.Dst)
				}
			}
		}
	})) / float64(calls)

	ly.oracleBuild = medianTime(reps, func() {
		for s, t := range trees {
			ixs[s] = statictree.NewDistIndex(t)
		}
	})
	if b.r.frozen {
		ly.centroidBuild = medianTime(reps, func() {
			for s := range b.local {
				t, err := statictree.Centroid(b.part.Size(s), 4)
				if err == nil {
					sink += int64(t.N())
				}
			}
		})
	}

	// The sequential replay: sim.Run on fresh identical nets (the
	// correctness reference, already timed for non-frozen compositions),
	// then once more with the adjuster traced, for the adjust share.
	ly.serve = b.ref.replay
	if b.r.frozen {
		for s, seq := range b.local {
			net, err := b.r.newNet(b.part.Size(s), nil)
			if err != nil {
				return ly, err
			}
			t0 := time.Now()
			sim.Run(net, seq)
			ly.serve += time.Since(t0)
		}
	}
	tr := newTracer()
	costs := make([]int64, 0, len(b.tr.Reqs)*2)
	var routing, adjust int64
	for s, seq := range b.local {
		l := tr.newLane(0)
		net, err := b.r.newNet(b.part.Size(s), l)
		if err != nil {
			return ly, err
		}
		t0 := time.Now()
		for _, q := range seq {
			c := net.Serve(q.Src, q.Dst)
			routing += c.Routing
			adjust += c.Adjust
			costs = append(costs, c.Routing)
		}
		ly.tracedServe += time.Since(t0)
		ly.rotations += net.Tree().Rotations()
	}
	if routing+b.ref.cross*serve.InterShardHop != b.ref.routing || adjust != b.ref.adjust {
		b.failures = append(b.failures, fmt.Sprintf("traced replay routing/adjust %d/%d, reference %d/%d",
			routing+b.ref.cross*serve.InterShardHop, adjust, b.ref.routing, b.ref.adjust))
	}
	ad, op := tr.total(spanAdjust), tr.total(spanOptimal)
	ly.adjust, ly.optimal = time.Duration(ad.total), time.Duration(op.total)
	ly.fires, ly.solves = ad.count, op.count

	ly.observeNs = float64(medianTime(reps, func() {
		var h hist.Hist
		for _, c := range costs {
			h.Observe(c)
		}
		sink += h.Count()
	})) / float64(len(costs))
	return ly, nil
}

// tracedRound is what one traced serving round leaves behind.
type tracedRound struct {
	stats  *serve.Stats
	lanes  []*lane // one per shard
	builds []interval
	run    interval
}

// tracedMaker builds shard networks decorated to record spans: the build
// itself on the run's lane, everything the shard's owner does on a fresh
// lane per shard.
func (b *bench) tracedMaker(tr *tracer, main *lane, rd *tracedRound) func(n int) (sim.Network, error) {
	runID := main.stack[len(main.stack)-1].id
	return func(n int) (sim.Network, error) {
		start := main.now()
		main.begin(spanBuild)
		l := tr.newLane(runID)
		net, err := b.r.newNet(n, l)
		main.end()
		rd.builds = append(rd.builds, interval{start, main.now()})
		if err != nil {
			return nil, err
		}
		rd.lanes = append(rd.lanes, l)
		return &tracedNet{net: net, lane: l}, nil
	}
}

// checkSpans cross-checks one traced round's span counts with the
// serving layer's own ledger.
func (b *bench) checkSpans(rd *tracedRound) {
	var served int64
	for _, ps := range rd.stats.PerShard {
		served += ps.Requests
	}
	var cnt [numSpanNames]int64
	for _, l := range rd.lanes {
		for n := range cnt {
			cnt[n] += l.aggs[n].count
		}
	}
	want := [numSpanNames]int64{spanServe: served}
	if b.r.frozen {
		want[spanServe] = 0 // served lock-free through the oracle, never by an owner
	}
	if f := rd.stats.Faults; f != nil {
		want[spanCheckpoint], want[spanRecovery], want[spanRestore] = f.Checkpoints, f.Recoveries, f.Recoveries
		want[spanReplay] = f.ReplayedRequests
	}
	for _, n := range []spanName{spanServe, spanCheckpoint, spanRecovery, spanRestore, spanReplay} {
		if cnt[n] != want[n] {
			b.failures = append(b.failures, fmt.Sprintf("round %d: %d %s spans, the serving ledger says %d",
				b.rounds, cnt[n], n, want[n]))
		}
	}
	if cnt[spanOptimal] != cnt[spanAdjust] && cnt[spanOptimal] != 0 {
		b.failures = append(b.failures, fmt.Sprintf("round %d: %d rebuild solves for %d adjustments",
			b.rounds, cnt[spanOptimal], cnt[spanAdjust]))
	}
}

// traced alternates untraced and traced serving rounds until the budget
// is spent, then reports the per-layer metrics and the per-request
// budget, and writes the kept spans to spansPath.
func (b *bench) traced(budget time.Duration, spansPath string) (result, error) {
	ly, err := b.measureLayers()
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	main := tr.newLane(0)
	var plainEl, tracedEl, busy []float64
	var lat hist.Hist
	var plain *serve.Stats
	var rounds []*tracedRound
	var mallocs uint64
	var spent time.Duration
	for len(rounds) < 2 || spent < budget {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st, wall, err := b.serveRound(b.plainMaker())
		if err != nil {
			return result{}, err
		}
		runtime.ReadMemStats(&after)
		if plain == nil {
			plain, mallocs = st, after.Mallocs-before.Mallocs
		}
		plainEl = append(plainEl, float64(st.Elapsed))
		lat.Merge(st.LatencyHist)
		spent += wall

		rd := &tracedRound{}
		runtime.GC()
		main.begin(spanRun)
		st, wall, err = b.serveRound(b.tracedMaker(tr, main, rd))
		main.end()
		if err != nil {
			return result{}, err
		}
		rd.stats, rd.run = st, main.top[len(main.top)-1]
		b.checkSpans(rd)
		rounds = append(rounds, rd)
		tracedEl = append(tracedEl, float64(st.Elapsed))
		var sum float64
		for _, l := range rd.lanes {
			sum += float64(l.busy()) / float64(st.Elapsed)
		}
		busy = append(busy, sum/float64(len(rd.lanes)))
		spent += wall
		fmt.Printf("round pair %d: untraced elapsed=%v traced elapsed=%v\n",
			len(rounds), time.Duration(plainEl[len(plainEl)-1]), st.Elapsed)
	}

	m := float64(len(b.tr.Reqs))
	nr := float64(len(rounds))
	// A request's end-to-end time is one client's closed-loop cycle: with
	// C clients each serves m/C requests in the elapsed time.
	e2e := median(plainEl) * float64(b.clients) / m
	meanLat := lat.Mean()
	ck, rc, rp, op := tr.total(spanCheckpoint), tr.total(spanRecovery), tr.total(spanReplay), tr.total(spanOptimal)
	perCall := func(a agg, unit float64) float64 {
		if a.count == 0 {
			return 0
		}
		return float64(a.total) / float64(a.count) / unit
	}
	ckPerReq := float64(ck.total) / nr / m
	rcPerReq := float64(rc.total) / nr / m
	serveNs := float64(ly.serve) / m
	adjustNs := float64(ly.adjust) / m
	policyRouteNs := float64(ly.tracedServe-ly.adjust) / m
	observes := float64(plain.RoutingHist.Count() + plain.LatencyHist.Count())
	for _, ps := range plain.PerShard {
		observes += float64(ps.Hist.Count())
	}
	observesPerReq := observes / float64(plain.Requests)

	// The budget: the layer self times on the request's path, plus the
	// hop, against the untraced end-to-end time per request.
	type row struct {
		name string
		ns   float64
		note string
	}
	rows := []row{
		{"workload.split", ly.splitNs, "iterating the clients' SplitGen substreams"},
		{"serve.route", ly.routeNs, "Partition.Route"},
		{"hist.observe", ly.observeNs * observesPerReq, fmt.Sprintf("%.3g observes/req", observesPerReq)},
	}
	var hop float64
	if b.r.frozen {
		dist := ly.distNs * ly.distCallsPerReq
		rows = append(rows, row{"statictree.dist", dist, fmt.Sprintf("%.3g oracle lookups/req, lock-free on the clients", ly.distCallsPerReq)})
		hop = meanLat - dist
		rows = append(rows, row{"serve.hop", hop, "latency window minus the lookups: no owner loop; a clock read and contention between clients"})
	} else {
		rows = append(rows,
			row{"policy.route", policyRouteNs, "Net.Serve minus Adjust: kernels, DistanceLCA, oracle, trigger, window"},
			row{"policy.adjust", float64(ly.adjust-ly.optimal) / m, fmt.Sprintf("%d adjustments", ly.fires)})
		if ly.solves > 0 {
			rows = append(rows, row{"statictree.optimal", float64(ly.optimal) / m, fmt.Sprintf("%d DP solves", ly.solves)})
		}
		if b.plan != nil {
			rows = append(rows, row{"serve.checkpoint", ckPerReq, ""}, row{"serve.recovery", rcPerReq, "Restore plus replay"})
		}
		hop = meanLat - policyRouteNs - adjustNs - ckPerReq - rcPerReq
		rows = append(rows, row{"serve.hop", hop, "mean request latency minus the owner's work: channel round trip and wake-up"})
	}
	var sum float64
	fmt.Println("budget (ns per request; layer rows are single-threaded timings on this workload's inputs):")
	for _, r := range rows {
		sum += r.ns
		fmt.Printf("  %-22s %10.1f  %s\n", r.name, r.ns, r.note)
	}
	fmt.Printf("  %-22s %10.1f\n  %-22s %10.1f  serve.Run elapsed x clients / requests, untraced, median of %d rounds\n  %-22s %10.1f\n",
		"sum", sum, "e2e", e2e, len(plainEl), "budget.unaccounted", e2e-sum)

	// Span self times of the traced rounds, per request.
	var runSelf int64
	for _, rd := range rounds {
		ivs := append([]interval(nil), rd.builds...)
		for _, l := range rd.lanes {
			ivs = append(ivs, l.top...)
		}
		runSelf += rd.run.end - rd.run.start - coveredBy(rd.run, ivs)
	}
	fmt.Printf("spans (traced rounds: %d; self time = span minus the part its children cover):\n", len(rounds))
	fmt.Printf("  %-28s %10s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_ns/req")
	for n := spanName(0); n < numSpanNames; n++ {
		a := tr.total(n)
		if n == spanRun {
			a.self = runSelf
		}
		fmt.Printf("  %-28s %10d %12.3f %12.3f %12.1f\n", n, a.count, float64(a.total)/1e6, float64(a.self)/1e6, float64(a.self)/nr/m)
	}
	kept, err := tr.write(spansPath)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# spans: %d kept (rare spans all, per-request trees 1 in %d) in %s\n", kept, sampleEvery, spansPath)

	tailQ, tail, _ := tailPercentile(&lat)
	fmt.Printf("# latency tail: p%.6g = %.3f us over %d samples; allocs: %d mallocs over %d requests (set-up included)\n",
		tailQ*100, tail/1e3, lat.Count(), mallocs, plain.Requests)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	mt := map[string]metric{
		"workload.gen_ns_per_req":       {float64(b.genTime) / m, "ns"},
		"workload.split_ns_per_req":     {ly.splitNs, "ns"},
		"serve.route_ns_per_req":        {ly.routeNs, "ns"},
		"serve.cross_ratio":             {float64(plain.CrossShard) / float64(plain.Requests), "ratio"},
		"serve.hop_ns_per_req":          {hop, "ns"},
		"serve.owner_busy_ratio":        {median(busy), "ratio"},
		"serve.checkpoint_us":           {perCall(ck, 1e3), "us"},
		"serve.checkpoints":             {float64(ck.count) / nr, "count"},
		"serve.recovery_us":             {perCall(rc, 1e3), "us"},
		"serve.replayed_per_recovery":   {ratio(float64(rp.count), float64(rc.count)), "count"},
		"serve.allocs_per_req":          {float64(mallocs) / float64(plain.Requests), "count"},
		"serve.latency_tail_us":         {tail / 1e3, "us"},
		"policy.serve_ns_per_req":       {serveNs, "ns"},
		"policy.adjust_ns_per_req":      {adjustNs, "ns"},
		"policy.route_ns_per_req":       {policyRouteNs, "ns"},
		"policy.fire_ratio":             {float64(ly.fires) / m, "ratio"},
		"core.rotations_per_req":        {float64(ly.rotations) / m, "count"},
		"core.adjust_ns_per_rotation":   {ratio(float64(ly.adjust), float64(ly.rotations)), "ns"},
		"statictree.optimal_ms":         {perCall(op, 1e6), "ms"},
		"statictree.rebuilds":           {float64(op.count) / nr, "count"},
		"statictree.centroid_build_ms":  {float64(ly.centroidBuild) / 1e6, "ms"},
		"statictree.oracle_build_ms":    {float64(ly.oracleBuild) / 1e6, "ms"},
		"statictree.dist_ns":            {ly.distNs, "ns"},
		"hist.observe_ns":               {ly.observeNs, "ns"},
		"hist.observes_per_req":         {observesPerReq, "count"},
		"budget.e2e_ns_per_req":         {e2e, "ns"},
		"budget.unaccounted_ns_per_req": {e2e - sum, "ns"},
		"trace.overhead_ratio":          {median(tracedEl) / median(plainEl), "ratio"},
	}
	for _, k := range sortedKeys(mt) {
		fmt.Printf("metric %-30s %14.6g %s\n", k, mt[k].Value, mt[k].Unit)
	}
	return result{Attempted: b.attempted, Failed: b.failed, Metrics: mt}, nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
