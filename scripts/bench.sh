#!/usr/bin/env bash
# Regenerates one of the checked-in benchmark baselines BENCH_PR4.json …
# BENCH_PR10.json: runs the suite's benchmark set and converts it to
# {name -> ns/op, bytes/op, allocs/op} (schema ksan-bench/v1, produced by
# cmd/benchjson). The files form the repo's performance trajectory; each
# suite keeps the benchmark set its baseline was recorded with, so a
# candidate regenerated here diffs cleanly against it with cmd/benchdiff.
# Allocation and bytes contracts hold across machines; ns/op (and the
# req/s metric of the serving runs) only means something when diffing two
# runs on one machine.
#
# Suites:
#   pr4   DP solver grid, demand aggregation, facade serve/DP benchmarks
#   pr5   policy trigger x adjuster grid, sequential serve, link churn
#   pr6   pr5's set plus the DP solver grid (arena-tree working sets)
#   pr7   streaming generators, Collect, the engine's RunGen paths
#   pr8   serving layer: shard grid, Route, Hist, sequential serve paths
#   pr9   pr8 plus the fault machinery (checkpoint, recovery, faulted runs)
#   pr10  pr9's serving set plus the k grid and the routing kernels
#
# Usage: scripts/bench.sh <suite> [output.json]   (default BENCH_<SUITE>.json)
#   BENCHTIME=1x scripts/bench.sh pr9 /tmp/check.json   # schema check
#   BENCHTIME=2x scripts/bench.sh pr9 /tmp/cand.json    # benchdiff candidate
#   COUNT=5 repeats every benchmark (benchjson keeps each one's min);
#   SOLVER_BENCHTIME sets the benchtime of pr6's DP grid, which runs at count 1.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench.sh <pr4|pr5|pr6|pr7|pr8|pr9|pr10> [output.json]"
suite="${1:?$usage}"
out="${2:-BENCH_${suite^^}.json}"
benchtime="${BENCHTIME:-1s}"
count="${COUNT:-1}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

run() { # run <package> <bench regex> [benchtime] [count]
  go test -run '^$' -bench "$2" -benchmem -benchtime "${3:-$benchtime}" -count "${4:-$count}" "$1" >>"$tmp"
}

seq_serve='BenchmarkServeKAryTemporal|BenchmarkServeKAryUniform|BenchmarkServeSplayNetTemporal'
serve_layer='BenchmarkLoad|BenchmarkFaultedLoad|BenchmarkRoute|BenchmarkHist|BenchmarkCheckpoint|BenchmarkRecovery'

case "$suite" in
pr4)
  run ./internal/statictree 'BenchmarkOptimal$|BenchmarkSolverSweep$|BenchmarkOptimalExhaustive$|BenchmarkSegmentCosts$'
  run ./internal/workload 'BenchmarkDemandFromTrace$|BenchmarkDemandFromTraceMap$'
  run . 'BenchmarkServeKAryTemporal$|BenchmarkServeCentroidTemporal$|BenchmarkServeSplayNetTemporal$|BenchmarkOptimalDPCubic$|BenchmarkTable8OptimalBSTBuild$|BenchmarkRemark10UniformDP$'
  ;;
pr5 | pr6)
  run . 'BenchmarkPolicyServe|BenchmarkServeKAryTemporal$|BenchmarkServeCentroidTemporal$|BenchmarkServeSplayNetTemporal$'
  run ./internal/policy 'BenchmarkLinkChurn'
  if [ "$suite" = pr6 ]; then
    run ./internal/statictree 'BenchmarkOptimal$|BenchmarkSolverSweep' "${SOLVER_BENCHTIME:-$benchtime}" 1
  fi
  ;;
pr7)
  run ./internal/workload 'BenchmarkGenerate|BenchmarkCollect'
  run ./internal/engine 'BenchmarkRunGenStream'
  ;;
pr8)
  run ./internal/serve 'BenchmarkLoad|BenchmarkRoute|BenchmarkHist'
  run . "$seq_serve"
  ;;
pr9)
  run ./internal/serve "$serve_layer"
  run . "$seq_serve"
  ;;
pr10)
  run ./internal/serve "$serve_layer"
  run . "$seq_serve|BenchmarkServeKAryGrid"
  run ./internal/core 'BenchmarkSlotFor|BenchmarkMov'
  ;;
*)
  echo "$usage" >&2
  exit 2
  ;;
esac

go run ./cmd/benchjson <"$tmp" >"$out"
echo "bench $suite: wrote $out ($(grep -c '"ns_per_op"' "$out") benchmarks at -benchtime=$benchtime)" >&2
