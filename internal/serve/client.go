package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ksan-net/ksan/internal/hist"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

// counterFlush is how many completed requests a client accumulates
// locally before flushing them into the shared live counter: the live
// requests/sec display costs one atomic add per this many requests
// instead of one per request.
const counterFlush = 256

// shardAcc accumulates one client's view of one shard: the local serves
// it routed there (warmup included — these are the totals the per-shard
// sequential-equivalence property compares against a replay).
type shardAcc struct {
	requests, routing, adjust int64
	hist                      hist.Hist
}

// clientAcc is everything one client routine measures. Clients never
// share accumulators — each routine observes into its own and the pool
// merges them after the run drains — so measurement adds no locks to the
// request hot path.
type clientAcc struct {
	requests, routing, adjust, cross                 int64 // measurement region
	warmRequests, warmRouting, warmAdjust, warmCross int64
	routingHist, latencyHist                         hist.Hist
	perShard                                         []shardAcc
	faults                                           FaultStats // client-side ledger slice (timeouts, retries, failed, degraded)
	err                                              error
}

// client is one closed-loop load routine: it iterates its private pass of
// the workload stream (an independent SplitGen substream), serves each
// request to completion before drawing the next, and paces itself to its
// share of the aggregate target throughput.
type client struct {
	pool   *pool
	id     int
	gen    workload.Generator
	budget int64 // requests this client may serve; <0 = until stream end
	acc    clientAcc

	timer *time.Timer
	jit   uint64 // deterministic backoff-jitter stream
}

// resetTimer arms the client's reusable timer (Go 1.23 timer semantics:
// Reset discards any pending fire, so no drain dance is needed).
func (c *client) resetTimer(d time.Duration) {
	if c.timer == nil {
		c.timer = time.NewTimer(d)
		return
	}
	c.timer.Reset(d)
}

// sleepStop sleeps for d or until the pool halts, whichever comes first,
// and reports whether the pool is still running — so pacing waits and
// retry backoffs never delay cancellation by more than a scheduler tick
// (the PR 8 pacing loop slept through stops for up to a full interval).
func (c *client) sleepStop(d time.Duration) bool {
	if d <= 0 {
		return !c.pool.stop.Load()
	}
	c.resetTimer(d)
	select {
	case <-c.timer.C:
		return !c.pool.stop.Load()
	case <-c.pool.stopCh:
		c.timer.Stop()
		return false
	}
}

// Half-request outcomes.
const (
	outcomeOK       uint8 = iota
	outcomeDegraded       // served read-only through a stale checkpoint oracle
	outcomeFailed         // timed out, stopped in a stall wait, or down after retries under fail-fast
)

// maxBackoffDoublings bounds the exponent of the retry backoff: attempts
// past it wait as long as attempt maxBackoffDoublings.
const maxBackoffDoublings = 30

// backoffDelay is the wait before retry number attempt+1: base doubled
// once per attempt, saturating at limit (math.MaxInt64 when limit is 0,
// i.e. uncapped) rather than wrapping, then scaled by a jitter factor in
// [1/2, 1] drawn from the top 53 bits of jit.
func backoffDelay(base, limit time.Duration, attempt int, jit uint64) time.Duration {
	if base <= 0 {
		return 0
	}
	if limit <= 0 {
		limit = math.MaxInt64
	}
	attempt = min(attempt, maxBackoffDoublings)
	d := limit
	if base <= limit>>uint(attempt) {
		d = base << uint(attempt)
	}
	frac := 0.5 + float64(jit>>11)/float64(1<<53)/2
	if j := float64(d) * frac; j < math.MaxInt64 {
		return time.Duration(j)
	}
	return d // frac rounded to 1 at the int64 edge
}

// backoff sleeps before retry number attempt+1, drawing its jitter from a
// splitmix64 stream seeded by (plan.Seed, client id) — a replayed fault
// schedule backs off identically, run after run.
func (c *client) backoff(attempt int) {
	plan := &c.pool.plan
	if plan.Backoff <= 0 {
		return
	}
	c.jit = mix64(c.jit)
	c.sleepStop(backoffDelay(plan.Backoff, plan.BackoffCap, attempt, c.jit))
}

// acquire takes s's token for one attempt and waits out any pending
// stall on it. The attempt's deadline (Timeout) bounds both waits, and
// the stall wait also gives way to a stop. It reports false, holding no
// token and having served nothing, when the attempt gave up.
func (c *client) acquire(s *shard) bool {
	timeout := c.pool.plan.Timeout
	var deadline time.Time
	if timeout <= 0 {
		<-s.token
	} else {
		deadline = time.Now().Add(timeout)
		c.resetTimer(timeout)
		select {
		case <-s.token:
		case <-c.timer.C:
			c.acc.faults.Timeouts++
			return false
		}
	}
	if s.stallUntil.IsZero() {
		return true
	}
	// Giving up leaves the stall pending for the next holder.
	end, timedOut := s.stallUntil, timeout > 0 && deadline.Before(s.stallUntil)
	if timedOut {
		end = deadline
	}
	if running := c.sleepStop(time.Until(end)); !running || timedOut {
		s.token <- struct{}{}
		if running {
			c.acc.faults.Timeouts++
		}
		return false
	}
	s.stallUntil = time.Time{}
	return true
}

// serveHalf serves one local (half-)request on a shard. A frozen shard
// answers lock-free through its distance oracle. Otherwise the client
// serves the half itself under the shard's token: a timed-out attempt
// was never served and fails without retry, a down turn is retried with
// backoff (each attempt ticks the shard's recovery clock), and the
// degraded fallback follows once retries run out. Under the zero plan
// this is one token turn.
func (c *client) serveHalf(s *shard, a, b int) (sim.Cost, uint8) {
	if s.oracle != nil {
		if a == b {
			return sim.Cost{}, outcomeOK
		}
		return sim.Cost{Routing: s.oracle.Dist(a, b)}, outcomeOK
	}
	p := c.pool
	plan := &p.plan
	for attempt := 0; ; attempt++ {
		if !c.acquire(s) {
			return sim.Cost{}, outcomeFailed
		}
		cost, ok := s.serve(a, b)
		s.token <- struct{}{}
		if ok {
			return cost, outcomeOK
		}
		// Down: safe to retry — the shard rejected without serving.
		if attempt < plan.Retries && !p.stop.Load() {
			c.acc.faults.Retries++
			c.backoff(attempt)
			continue
		}
		if plan.Degraded == DegradedStale {
			if ix := s.stale.Load(); ix != nil {
				var cost sim.Cost
				if a != b {
					cost.Routing = ix.Dist(a, b)
				}
				return cost, outcomeDegraded
			}
		}
		return sim.Cost{}, outcomeFailed
	}
}

// run drives the client loop. It returns normally on stream end, budget
// exhaustion, or a pool-wide stop (duration elapsed or context
// cancelled); a stream error is terminal and recorded in the accumulator.
//
// Only fully-OK requests enter the warmup/measured serving totals;
// degraded and failed requests go to the fault ledger, with OK halves of
// mixed requests still attributed to their shards, which served them.
// Without a fault plan every half is OK.
func (c *client) run() {
	p := c.pool
	plan := &p.plan
	c.acc.perShard = make([]shardAcc, p.part.S)
	c.jit = mix64(plan.Seed ^ (uint64(c.id)+1)*0x9e3779b97f4a7c15)

	var interval time.Duration
	if p.cfg.TargetOps > 0 {
		perClient := p.cfg.TargetOps / float64(p.cfg.Clients)
		interval = time.Duration(float64(time.Second) / perClient)
	}
	sample := p.cfg.LatencySample
	warmup := int64(p.cfg.Warmup)

	var served, unflushed int64
	start := time.Now()
	var r Route
	for rq, err := range c.gen.Requests() {
		if err != nil {
			c.acc.err = err
			break
		}
		if c.budget >= 0 && served >= c.budget {
			break
		}
		if p.stop.Load() {
			break
		}
		if interval > 0 {
			// Schedule-based pacing (the YCSB "throttle to target"
			// loop): sleep until this request's release time, computed
			// from the start so that transient stalls are caught up.
			if wait := time.Until(start.Add(time.Duration(served) * interval)); wait > 0 {
				if !c.sleepStop(wait) {
					break
				}
			}
		}

		p.part.Route(rq.Src, rq.Dst, &r)
		timed := sample > 0 && served%int64(sample) == 0
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		c1, o1 := c.serveHalf(p.shards[r.S1], r.A1, r.B1)
		// A failed source half fails the request: the destination half is
		// never attempted and shares its outcome, so it is not counted as
		// served on the destination shard.
		var c2 sim.Cost
		o2 := o1
		if r.Cross && o1 != outcomeFailed {
			c2, o2 = c.serveHalf(p.shards[r.S2], r.A2, r.B2)
		}
		var lat int64
		if timed {
			lat = int64(time.Since(t0))
		}

		if o1 == outcomeOK {
			sa := &c.acc.perShard[r.S1]
			sa.requests++
			sa.routing += c1.Routing
			sa.adjust += c1.Adjust
			sa.hist.Observe(c1.Routing)
		}
		if r.Cross && o2 == outcomeOK {
			sa2 := &c.acc.perShard[r.S2]
			sa2.requests++
			sa2.routing += c2.Routing
			sa2.adjust += c2.Adjust
			sa2.hist.Observe(c2.Routing)
		}
		switch {
		case o1 == outcomeFailed || o2 == outcomeFailed:
			c.acc.faults.FailedRequests++
		case o1 == outcomeDegraded || o2 == outcomeDegraded:
			routing := c1.Routing + c2.Routing
			if r.Cross {
				routing += InterShardHop
			}
			c.acc.faults.DegradedRequests++
			c.acc.faults.DegradedRouting += routing
		default:
			routing, adjust := c1.Routing, c1.Adjust
			if r.Cross {
				routing += InterShardHop + c2.Routing
				adjust += c2.Adjust
			}
			if served < warmup {
				c.acc.warmRequests++
				c.acc.warmRouting += routing
				c.acc.warmAdjust += adjust
				if r.Cross {
					c.acc.warmCross++
				}
			} else {
				c.acc.requests++
				c.acc.routing += routing
				c.acc.adjust += adjust
				if r.Cross {
					c.acc.cross++
				}
				c.acc.routingHist.Observe(routing)
				if timed {
					c.acc.latencyHist.Observe(lat)
				}
			}
		}

		served++
		unflushed++
		if unflushed == counterFlush {
			p.served.Add(unflushed)
			unflushed = 0
		}
	}
	if unflushed > 0 {
		p.served.Add(unflushed)
	}
}

// pool is the shared run state of one serving run.
type pool struct {
	cfg      Config
	part     *Partition
	shards   []*shard
	plan     FaultPlan // the zero plan when faults are off: no deadline, retries or fallback
	stop     atomic.Bool
	stopCh   chan struct{}
	stopOnce sync.Once
	served   atomic.Int64
}

// halt flips the stop flag and wakes every client sleeping in pacing,
// backoff or stall waits.
func (p *pool) halt() {
	p.stopOnce.Do(func() {
		p.stop.Store(true)
		close(p.stopCh)
	})
}
