package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
)

// staticServer is the shard-safe serving hook: a network whose topology
// is provably static (a frozen composition) exposes its Euler-tour/RMQ
// distance oracle, and the serving layer then answers its requests
// lock-free from the client routines themselves — the oracle is immutable,
// so concurrent Dist calls need no coordination. policy.Net and
// statictree.Net implement it; any network that does not (or whose
// StaticOracle reports false because its trigger can still fire) is
// served through its shard's owner goroutine instead.
type staticServer interface {
	StaticOracle() (*statictree.DistIndex, bool)
}

// request is one unit of work sent to a shard's owner loop. Requests
// carry a client sequence number so that a reply arriving after its
// deadline can be told apart from the reply being awaited. The reply
// channel is client-owned and reused across requests, so the closed-loop
// hot path allocates nothing per request.
type request struct {
	u, v  int
	seq   uint64
	reply chan response
}

// response statuses.
const (
	statusOK uint8 = iota
	statusDown
)

// response is one owner reply; a downed shard refuses with statusDown
// without serving.
type response struct {
	cost   sim.Cost
	seq    uint64
	shard  int32
	status uint8
}

// shard owns one partition of the node space: a private network instance
// plus the single goroutine allowed to mutate it. All self-adjustment —
// rotations, trigger state, demand windows, churn scratch — happens
// inside the owner loop, which is what makes serving concurrent without
// any locks on network state (the single-writer rule, DESIGN.md §11).
// Frozen shards of a fault-free run carry their distance oracle instead
// and have no owner loop: clients serve them lock-free. With a fault plan
// armed every shard, frozen included, has an owner loop, and that loop
// also checkpoints, fires the scripted crashes and stalls, and recovers
// by snapshot plus replay (DESIGN.md §12).
type shard struct {
	id     int
	nodes  int
	net    sim.Network
	oracle *statictree.DistIndex // non-nil: frozen, clients serve lock-free
	ch     chan request
	done   chan struct{}
	record bool
	local  []sim.Request // processed local sequence, when record is set

	// Fault state (owner-goroutine-private except stale); unused without a plan.
	recov       recoverable
	events      []FaultEvent
	wal         []sim.Request // post-checkpoint replay log, bounded by the checkpoint interval
	localServed int64
	// stale is the last-checkpoint distance oracle published for
	// degraded-mode reads (DegradedStale only). Each publish is a fresh
	// immutable index, so clients may keep querying one they loaded
	// while the owner publishes the next.
	stale atomic.Pointer[statictree.DistIndex]

	faults FaultStats // owner-side ledger slice (crashes, recoveries, checkpoints, replays, stalls, rejections)
}

// checkpoint snapshots the shard's full cost-relevant network state,
// truncates the replay log (the new checkpoint supersedes it), and — in
// stale-read mode — publishes a fresh distance oracle over the
// checkpointed topology. The CheckpointInto error path is unreachable:
// Run rejects non-checkpointable networks before starting any owner.
func (s *shard) checkpoint(cp *policy.Checkpoint, publishStale bool) {
	if err := s.recov.CheckpointInto(cp); err != nil {
		panic(fmt.Sprintf("serve: shard %d checkpoint failed after Run-time validation: %v", s.id, err))
	}
	s.faults.Checkpoints++
	s.wal = s.wal[:0]
	if publishStale {
		s.stale.Store(statictree.NewDistIndex(s.recov.Tree()))
	}
}

// run is the owner loop: the only goroutine that ever calls Serve on this
// shard's network. It drains the request channel in arrival order, which
// defines the shard's local request sequence — the sequence the
// sequential-equivalence property replays.
//
// With a fault plan it also checkpoints every interval serves, fires the
// scripted events at their logical trigger points, rejects arrivals while
// down, and recovers by restoring the last checkpoint and replaying the
// post-checkpoint log — which provably rebuilds the exact pre-crash state
// (the policy layer's checkpoint-restore equivalence), so a recovered
// shard's subsequent serves are bit-identical to a run that never
// crashed. A nil plan has interval 0 and no events: nothing is logged or
// checkpointed, and the shard is never down.
func (s *shard) run(plan *FaultPlan) {
	defer close(s.done)
	interval := plan.checkpointInterval()
	publishStale := plan != nil && plan.Degraded == DegradedStale
	var cp policy.Checkpoint
	if interval > 0 {
		s.checkpoint(&cp, publishStale) // recovery point for a crash before the first interval
	}
	evIdx := 0
	down := false
	var downRemaining int64
	for rq := range s.ch {
		if down {
			if downRemaining != 0 {
				if downRemaining > 0 {
					downRemaining--
				}
				s.faults.Rejected++
				rq.reply <- response{seq: rq.seq, shard: int32(s.id), status: statusDown}
				continue
			}
			// Recovery: restore the checkpoint, replay the log. The
			// restore error path is unreachable for the same reason as
			// in checkpoint (the checkpoint came from this very net).
			if err := s.recov.Restore(&cp); err != nil {
				panic(fmt.Sprintf("serve: shard %d restore failed after Run-time validation: %v", s.id, err))
			}
			for _, r := range s.wal {
				c := s.net.Serve(r.Src, r.Dst)
				s.faults.ReplayRouting += c.Routing
				s.faults.ReplayAdjust += c.Adjust
			}
			s.faults.ReplayedRequests += int64(len(s.wal))
			s.faults.Recoveries++
			down = false
		}
		if s.record {
			s.local = append(s.local, sim.Request{Src: rq.u, Dst: rq.v})
		}
		cost := s.net.Serve(rq.u, rq.v)
		s.localServed++
		rq.reply <- response{cost: cost, seq: rq.seq, shard: int32(s.id)}
		if interval > 0 {
			// Post-serve boundaries: the checkpoint first, then any event
			// at the same point — a crash scheduled on a checkpoint
			// boundary loses nothing and replays nothing.
			if s.localServed%interval == 0 {
				s.checkpoint(&cp, publishStale)
			} else {
				s.wal = append(s.wal, sim.Request{Src: rq.u, Dst: rq.v})
			}
		}
		for evIdx < len(s.events) && s.events[evIdx].At == s.localServed {
			ev := s.events[evIdx]
			evIdx++
			switch ev.Kind {
			case FaultCrash:
				down = true
				downRemaining = ev.RecoverAfter
				s.faults.Crashes++
			case FaultStall:
				s.faults.Stalls++
				time.Sleep(ev.Stall)
			}
		}
	}
}
