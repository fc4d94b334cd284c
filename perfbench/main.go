// Command perfbench is the repository's serving benchmark. It generates
// one workload's requests from a seed, serves them through serve.Run as a
// materialized workload.Trace in repeated closed-loop rounds, checks every
// round's outputs against a single-threaded reference, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics and the
// per-request time budget of a traced run (--trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, after building):
//
//	perfbench --workload splay-k32 --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/ksan-net/ksan/internal/hist"
	"github.com/ksan-net/ksan/internal/serve"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the generated requests")
	seconds := flag.Float64("seconds", 10, "serving time to measure")
	traceFlag := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	spansDir := flag.String("spans-dir", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span file")
	flag.Parse()
	r, err := lookup(*name)
	if err != nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		if err == nil {
			err = fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b, err := setUp(r, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b.printEnv(*seed, *seconds, *traceFlag)
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traceFlag == 0 {
		res, err = b.endToEnd(budget)
	} else {
		res, err = b.traced(budget, filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.name, *seed)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	for _, msg := range b.failures {
		fmt.Println("check FAILED:", msg)
	}
	res.Correct = len(b.failures) == 0
	if res.Correct {
		fmt.Printf("check ok: %d rounds, every output check passed\n", b.rounds)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one workload, generated and checked, ready to serve.
type bench struct {
	r       *recipe
	clients int
	tr      workload.Trace
	genTime time.Duration
	part    *serve.Partition
	local   [][]sim.Request // Partition.Project of the trace
	plan    *serve.FaultPlan
	ref     reference

	rounds    int
	attempted int64
	failed    int64
	failures  []string
}

// setUp generates the workload's requests from the seed and computes the
// single-threaded reference every round is checked against. Nothing here
// is timed as serving.
func setUp(r *recipe, seed int64) (*bench, error) {
	b := &bench{r: r, clients: min(r.clients, runtime.NumCPU())}
	t0 := time.Now()
	b.tr = r.trace(seed)
	b.genTime = time.Since(t0)
	if len(b.tr.Reqs) != r.requests || b.tr.N != r.n {
		return nil, fmt.Errorf("workload %s generated %d requests on %d nodes; want %d on %d",
			r.name, len(b.tr.Reqs), b.tr.N, r.requests, r.n)
	}
	var err error
	if b.part, err = serve.NewPartition(r.n, r.shards); err != nil {
		return nil, err
	}
	b.local = b.part.Project(b.tr.Reqs)
	if r.faulted {
		b.plan = faultPlan(b.local)
	}
	if b.ref, err = computeReference(b); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) printEnv(seed int64, seconds float64, trace int) {
	r := b.r
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", r.name, seed, seconds, trace)
	fmt.Printf("# env nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# shape network=%q n=%d shards=%d clients=%d (closed loop; %d requested) requests/round=%d trace=%q\n",
		r.label, r.n, r.shards, b.clients, r.clients, r.requests, b.tr.Name)
	if b.plan != nil {
		fmt.Printf("# faults crashes=%d checkpoint_every=%d recover_after=0\n", len(b.plan.Events), b.plan.CheckpointEvery)
	}
}

func (b *bench) config() serve.Config {
	return serve.Config{Shards: b.r.shards, Clients: b.clients, LatencySample: 1, Faults: b.plan}
}

// serveRound runs one serving round over the whole trace with fresh shard
// networks built by mk, checks its outputs, and returns the stats and the
// wall time of serve.Run.
func (b *bench) serveRound(mk func(n int) (sim.Network, error)) (*serve.Stats, time.Duration, error) {
	t0 := time.Now()
	stats, err := serve.Run(context.Background(), b.config(), mk, b.tr)
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("serve.Run: %w", err)
	}
	b.rounds++
	b.check(stats)
	return stats, wall, nil
}

// plainMaker builds the untraced shard networks, exactly as a caller of
// serve.Run would.
func (b *bench) plainMaker() func(n int) (sim.Network, error) {
	return func(n int) (sim.Network, error) { return b.r.newNet(n, nil) }
}

// endToEnd serves rounds until the budget is spent (at least minRounds)
// and reports the end-to-end metrics.
func (b *bench) endToEnd(budget time.Duration) (result, error) {
	const minRounds = 3
	var tput, setup []float64
	var lat hist.Hist
	var first *serve.Stats
	var spent time.Duration
	for len(tput) < minRounds || spent < budget {
		runtime.GC()
		stats, wall, err := b.serveRound(b.plainMaker())
		if err != nil {
			return result{}, err
		}
		if first == nil {
			first = stats
		}
		spent += wall
		tput = append(tput, float64(stats.Requests)/stats.Elapsed.Seconds())
		setup = append(setup, (wall - stats.Elapsed).Seconds())
		lat.Merge(stats.LatencyHist)
		fmt.Printf("round %d: requests=%d elapsed=%v throughput=%.0f req/s setup=%v\n",
			len(tput), stats.Requests, stats.Elapsed, tput[len(tput)-1], wall-stats.Elapsed)
	}
	setup = append(setup, b.extraSetups()...)
	mem := b.measureMem()

	req := float64(first.Requests)
	m := map[string]metric{
		"throughput_rps":  {median(tput), "req/s"},
		"latency_p50_us":  {lat.Percentile(0.50) / 1e3, "us"},
		"latency_p99_us":  {lat.Percentile(0.99) / 1e3, "us"},
		"setup_s":         {median(setup), "s"},
		"routing_per_req": {float64(first.Routing) / req, "hops/req"},
		"cost_per_req":    {float64(first.Routing+first.Adjust) / req, "cost/req"},
		"mem_mb":          {mem, "MB"},
	}
	for _, k := range []string{"throughput_rps", "latency_p50_us", "latency_p99_us", "setup_s",
		"routing_per_req", "cost_per_req", "mem_mb"} {
		fmt.Printf("metric %-16s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("metric %-16s %14.6g %s\n", "adjust_per_req", float64(first.Adjust)/req, "cost/req")
	fmt.Printf("metric %-16s %14.6g %s (%d of %d issued)\n", "failed_ratio",
		float64(b.failed)/float64(b.attempted), "ratio", b.failed, b.attempted)
	fmt.Printf("# latency: %d samples over %d rounds, p50 and p99 of the pooled histogram; setup_s is the median of %d set-ups\n",
		lat.Count(), len(tput), len(setup))
	return result{Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// extraSetups measures serve.Run's set-up alone, serving one request per
// client, so the set-up median rests on more samples than the rounds
// give.
func (b *bench) extraSetups() []float64 {
	const n = 10
	cfg := b.config()
	cfg.MaxRequests = int64(b.clients)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		stats, err := serve.Run(context.Background(), cfg, b.plainMaker(), b.tr)
		wall := time.Since(t0)
		if err != nil {
			b.failures = append(b.failures, fmt.Sprintf("set-up run: %v", err))
			return out
		}
		out = append(out, (wall - stats.Elapsed).Seconds())
	}
	return out
}

// measureMem returns the heap, in MB, held by freshly built shard
// networks and (for a frozen composition) their distance oracles: the
// constructors serve.Run calls, measured around a forced collection. The
// median of three builds.
func (b *bench) measureMem() float64 {
	var vals []float64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		nets := make([]sim.Network, b.r.shards)
		for s := range nets {
			net, err := b.r.newNet(b.part.Size(s), nil)
			if err != nil {
				b.failures = append(b.failures, fmt.Sprintf("building shard %d: %v", s, err))
				return 0
			}
			if b.r.frozen {
				net.StaticOracle()
			}
			nets[s] = net
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(nets)
		vals = append(vals, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/1e6)
	}
	return median(vals)
}
