package main

import (
	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// tracedNet decorates one shard's policy.Net with spans around Serve,
// CheckpointInto and Restore. It forwards every method the serving layer
// probes for (Checkpointable, CheckpointInto, Restore, Tree,
// StaticOracle), so serve.Run takes the same path with it as without it:
// the lock-free oracle path for a frozen net, the owner loop otherwise,
// and the faulted owner loop when a fault plan is armed.
//
// A recovery is the Restore call plus the replay of the requests served
// since the last checkpoint. The replay is not visible as a call of its
// own, so the decorator counts the serves since the last checkpoint and
// treats that many serves after a Restore as the replay.
type tracedNet struct {
	net  *policy.Net
	lane *lane

	sinceCheckpoint int
	replayLeft      int
}

func (t *tracedNet) Name() string { return t.net.Name() }
func (t *tracedNet) N() int       { return t.net.N() }

func (t *tracedNet) Serve(u, v int) sim.Cost {
	if t.replayLeft > 0 {
		t.lane.begin(spanReplay)
		c := t.net.Serve(u, v)
		t.lane.end()
		if t.replayLeft--; t.replayLeft == 0 {
			t.lane.end() // the recovery span
		}
		return c
	}
	t.sinceCheckpoint++
	t.lane.begin(spanServe)
	c := t.net.Serve(u, v)
	t.lane.end()
	return c
}

func (t *tracedNet) Checkpointable() bool { return t.net.Checkpointable() }

func (t *tracedNet) CheckpointInto(cp *policy.Checkpoint) error {
	t.lane.begin(spanCheckpoint)
	err := t.net.CheckpointInto(cp)
	t.lane.end()
	t.sinceCheckpoint = 0
	return err
}

func (t *tracedNet) Restore(cp *policy.Checkpoint) error {
	t.lane.begin(spanRecovery)
	t.lane.begin(spanRestore)
	err := t.net.Restore(cp)
	t.lane.end()
	t.replayLeft = t.sinceCheckpoint
	if err != nil || t.replayLeft == 0 {
		t.replayLeft = 0
		t.lane.end()
	}
	return err
}

func (t *tracedNet) Tree() *core.Tree { return t.net.Tree() }

func (t *tracedNet) StaticOracle() (*statictree.DistIndex, bool) { return t.net.StaticOracle() }

// tracedAdjuster decorates a policy.Adjuster with a span around Adjust.
type tracedAdjuster struct {
	policy.Adjuster
	lane *lane
}

func (a tracedAdjuster) Adjust(ctx *policy.Ctx) int64 {
	a.lane.begin(spanAdjust)
	c := a.Adjuster.Adjust(ctx)
	a.lane.end()
	return c
}

// tracedBuilder decorates the rebuild builder handed to policy.Rebuild
// with a span around each solve.
func tracedBuilder(l *lane, b policy.Builder) policy.Builder {
	return func(d *workload.Demand, k int) (*core.Tree, int64, error) {
		l.begin(spanOptimal)
		t, cost, err := b(d, k)
		l.end()
		return t, cost, err
	}
}
