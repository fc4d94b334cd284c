// Command benchjson converts `go test -bench -benchmem` output on stdin
// into the machine-readable benchmark-baseline schema used by
// BENCH_PR4.json at the repo root:
//
//	{
//	  "schema": "ksan-bench/v1",
//	  "go": "go1.24.0", "goos": "linux", "goarch": "amd64",
//	  "benchmarks": {
//	    "BenchmarkOptimal/n=512/k=8": {"ns_per_op": 6.4e8, "allocs_per_op": 5045, "bytes_per_op": 12344544}
//	  }
//	}
//
// The GOMAXPROCS suffix (-N) is stripped from benchmark names so baselines
// diff cleanly across machines; a benchmark that appears several times
// (e.g. -count > 1) keeps its minimum ns/op, the conventional
// noise-resistant summary. scripts/bench.sh is the canonical producer;
// CI regenerates the file at -benchtime=1x and validates both it and the
// checked-in baseline against this schema.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one benchmark's summary.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Baseline is the document schema.
type Baseline struct {
	Schema     string           `json:"schema"`
	Go         string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func main() {
	b, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(b.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (*Baseline, error) {
	b := &Baseline{
		Schema:     "ksan-bench/v1",
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: map[string]Entry{},
	}
	for sc.Scan() {
		name, e, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if prev, seen := b.Benchmarks[name]; seen && prev.NsPerOp <= e.NsPerOp {
			continue
		}
		b.Benchmarks[name] = e
	}
	return b, sc.Err()
}

// parseLine decodes one `Benchmark.../sub-8  10  123 ns/op  45 B/op  6
// allocs/op` line; non-benchmark lines return ok=false.
func parseLine(line string) (string, Entry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", Entry{}, false
	}
	name := trimProcSuffix(f[0])
	var e Entry
	got := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", Entry{}, false
		}
		switch f[i+1] {
		case "ns/op":
			e.NsPerOp = v
			got = true
		case "B/op":
			e.BytesPerOp = int64(v)
		case "allocs/op":
			e.AllocsPerOp = int64(v)
		}
	}
	return name, e, got
}

// trimProcSuffix drops the trailing -GOMAXPROCS from a benchmark name
// (only when it is a pure number, so sub-benchmark names keep their
// dashes).
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] { // unsigned digits only: "-1" is a name
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}
