package main

import (
	"fmt"
	"time"

	"github.com/ksan-net/ksan/internal/serve"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
)

// reference is what every serving round must reproduce: the totals of a
// single-threaded run over the same requests.
type reference struct {
	routing, adjust, cross int64
	shard                  []sim.Result // per shard, over Partition.Project's subsequence
	replay                 time.Duration
}

// computeReference serves the workload single-threaded. A frozen
// composition's reference is its distance oracle over each shard's
// centroid tree; every other composition's is sim.Run on a fresh
// identical network per shard, over that shard's projected subsequence
// (with one shard, the trace itself). Either way a cross-shard request
// adds serve.InterShardHop on top of its two halves.
func computeReference(b *bench) (reference, error) {
	ref := reference{shard: make([]sim.Result, len(b.local))}
	var rt serve.Route
	for _, rq := range b.tr.Reqs {
		if b.part.Route(rq.Src, rq.Dst, &rt); rt.Cross {
			ref.cross++
		}
	}
	for s, seq := range b.local {
		if b.r.frozen {
			t, err := b.r.tree(b.part.Size(s))
			if err != nil {
				return ref, err
			}
			ix := statictree.NewDistIndex(t)
			res := sim.Result{Requests: int64(len(seq))}
			for _, q := range seq {
				if q.Src != q.Dst {
					res.Routing += ix.Dist(q.Src, q.Dst)
				}
			}
			ref.shard[s] = res
		} else {
			net, err := b.r.newNet(b.part.Size(s), nil)
			if err != nil {
				return ref, err
			}
			t0 := time.Now()
			ref.shard[s] = sim.Run(net, seq)
			ref.replay += time.Since(t0)
		}
		ref.routing += ref.shard[s].Routing
		ref.adjust += ref.shard[s].Adjust
	}
	ref.routing += ref.cross * serve.InterShardHop
	return ref, nil
}

// check compares one round's stats with the reference and records every
// mismatch as a failure.
func (b *bench) check(st *serve.Stats) {
	fail := func(format string, args ...any) {
		b.failures = append(b.failures, fmt.Sprintf("round %d: ", b.rounds)+fmt.Sprintf(format, args...))
	}
	issued := int64(len(b.tr.Reqs))
	served := st.Requests + st.WarmupRequests
	var failed, degraded int64
	if st.Faults != nil {
		failed, degraded = st.Faults.FailedRequests, st.Faults.DegradedRequests
	}
	b.attempted += issued
	b.failed += failed + degraded
	if served+failed+degraded != issued {
		fail("issued %d != served %d + failed %d + degraded %d", issued, served, failed, degraded)
	}
	if failed+degraded != 0 {
		fail("%d requests failed and %d were answered degraded", failed, degraded)
	}
	if st.Routing != b.ref.routing || st.Adjust != b.ref.adjust {
		fail("routing/adjust %d/%d, reference %d/%d", st.Routing, st.Adjust, b.ref.routing, b.ref.adjust)
	}
	if st.CrossShard != b.ref.cross {
		fail("cross-shard %d, reference %d", st.CrossShard, b.ref.cross)
	}
	if b.r.frozen && st.Adjust != 0 {
		fail("frozen network charged adjustment %d", st.Adjust)
	}
	for s, ps := range st.PerShard {
		want := b.ref.shard[s]
		if ps.Requests != want.Requests || ps.Routing != want.Routing || ps.Adjust != want.Adjust {
			fail("shard %d requests/routing/adjust %d/%d/%d, reference %d/%d/%d",
				s, ps.Requests, ps.Routing, ps.Adjust, want.Requests, want.Routing, want.Adjust)
		}
	}
	if b.plan != nil {
		f := st.Faults
		want := int64(len(b.plan.Events))
		if f == nil || f.Crashes != want || f.Recoveries != want {
			fail("fault ledger %+v, want %d crashes and as many recoveries", f, want)
		} else if f.ReplayedRequests == 0 {
			fail("no recovery replayed a request")
		}
	}
}
