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
// served under its shard's token instead.
type staticServer interface {
	StaticOracle() (*statictree.DistIndex, bool)
}

// shard owns one partition of the node space: a private network instance
// plus the token that grants the right to mutate it. The client holding
// the token serves its half-request itself (shard.serve) and hands the
// token back, so all self-adjustment happens under mutual exclusion with
// no goroutine handoff (DESIGN.md §11). Frozen shards of a fault-free run
// carry their distance oracle instead and have no token: clients serve
// them lock-free. With a fault plan armed every shard, frozen included,
// has a token (DESIGN.md §12).
type shard struct {
	id     int
	nodes  int
	net    sim.Network
	oracle *statictree.DistIndex // non-nil: frozen, clients serve lock-free
	token  chan struct{}         // capacity 1, full while no client holds it
	record bool
	local  []sim.Request // processed local sequence, when record is set

	// Fault state, guarded by the token except stale; unused without a plan.
	recov         recoverable
	events        []FaultEvent
	interval      int64 // checkpoint interval; 0: no checkpoints, no replay log
	publishStale  bool
	cp            policy.Checkpoint
	wal           []sim.Request // post-checkpoint replay log, bounded by the checkpoint interval
	localServed   int64
	evIdx         int
	down          bool
	downRemaining int64
	stallUntil    time.Time // end of a pending stall (zero: none)
	// stale is the last-checkpoint distance oracle published for
	// degraded-mode reads (DegradedStale only). Each publish is a fresh
	// immutable index, so clients may keep querying one they loaded
	// while the token holder publishes the next.
	stale atomic.Pointer[statictree.DistIndex]

	faults FaultStats // shard-side ledger slice (crashes, recoveries, checkpoints, replays, stalls, rejections)
}

// checkpoint snapshots the shard's full cost-relevant network state,
// truncates the replay log (the new checkpoint supersedes it), and — in
// stale-read mode — publishes a fresh distance oracle over the
// checkpointed topology. The CheckpointInto error path is unreachable:
// Run rejects non-checkpointable networks before serving anything.
func (s *shard) checkpoint() {
	if err := s.recov.CheckpointInto(&s.cp); err != nil {
		panic(fmt.Sprintf("serve: shard %d checkpoint failed after Run-time validation: %v", s.id, err))
	}
	s.faults.Checkpoints++
	s.wal = s.wal[:0]
	if s.publishStale {
		s.stale.Store(statictree.NewDistIndex(s.recov.Tree()))
	}
}

// serve is one turn of the shard, taken by the client holding its token:
// the only place Serve is ever called on this shard's network, so the
// token-acquisition order is the shard's local request sequence (the one
// the sequential-equivalence property replays). It reports false,
// without serving, when the shard is down.
//
// With a fault plan it also takes the recovery-point checkpoint on the
// first turn, checkpoints every interval serves, fires the scripted
// events at their logical trigger points, and recovers by restoring the
// last checkpoint and replaying the post-checkpoint log, which rebuilds
// the exact pre-crash state. A nil plan has interval 0 and no events:
// nothing is logged or checkpointed, and the shard is never down.
func (s *shard) serve(u, v int) (sim.Cost, bool) {
	if s.interval > 0 && s.faults.Checkpoints == 0 {
		s.checkpoint() // recovery point for a crash before the first interval
	}
	if s.down {
		if s.downRemaining != 0 {
			if s.downRemaining > 0 {
				s.downRemaining--
			}
			s.faults.Rejected++
			return sim.Cost{}, false
		}
		// Recovery: restore the checkpoint, replay the log. The restore
		// error path is unreachable for the same reason as in checkpoint
		// (the checkpoint came from this very net).
		if err := s.recov.Restore(&s.cp); err != nil {
			panic(fmt.Sprintf("serve: shard %d restore failed after Run-time validation: %v", s.id, err))
		}
		for _, r := range s.wal {
			c := s.net.Serve(r.Src, r.Dst)
			s.faults.ReplayRouting += c.Routing
			s.faults.ReplayAdjust += c.Adjust
		}
		s.faults.ReplayedRequests += int64(len(s.wal))
		s.faults.Recoveries++
		s.down = false
	}
	if s.record {
		s.local = append(s.local, sim.Request{Src: u, Dst: v})
	}
	cost := s.net.Serve(u, v)
	s.localServed++
	if s.interval > 0 {
		// Post-serve boundaries: the checkpoint first, then any event at
		// the same point — a crash scheduled on a checkpoint boundary
		// loses nothing and replays nothing.
		if s.localServed%s.interval == 0 {
			s.checkpoint()
		} else {
			s.wal = append(s.wal, sim.Request{Src: u, Dst: v})
		}
	}
	for s.evIdx < len(s.events) && s.events[s.evIdx].At == s.localServed {
		ev := s.events[s.evIdx]
		s.evIdx++
		switch ev.Kind {
		case FaultCrash:
			s.down = true
			s.downRemaining = ev.RecoverAfter
			s.faults.Crashes++
		case FaultStall:
			// The stall delays the next arrivals, not this one: the next
			// token holder waits it out (client.acquire).
			s.faults.Stalls++
			s.stallUntil = time.Now().Add(ev.Stall)
		}
	}
	return cost, true
}
