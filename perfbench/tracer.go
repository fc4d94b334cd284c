package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names. Each names the exported call a span is recorded around; the
// spans are recorded by this benchmark's decorators, never by the program.
type spanName uint8

const (
	spanRun        spanName = iota // serve.Run
	spanBuild                      // one shard network build (the constructor serve.Run calls)
	spanServe                      // policy.Net.Serve on a shard owner loop
	spanReplay                     // policy.Net.Serve re-serving the replay log during a recovery
	spanAdjust                     // policy.Adjuster.Adjust
	spanOptimal                    // statictree.Optimal, the rebuild builder
	spanCheckpoint                 // policy.Net.CheckpointInto
	spanRecovery                   // policy.Net.Restore plus the replay it triggers
	spanRestore                    // policy.Net.Restore
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"serve.Run", "serve.build_shard", "policy.Net.Serve", "policy.Net.Serve(replay)",
	"policy.Adjuster.Adjust", "statictree.Optimal", "policy.Net.CheckpointInto",
	"serve.recovery", "policy.Net.Restore",
}

func (n spanName) String() string { return spanNames[n] }

// rare spans are kept in memory unsampled; per-request spans are kept for
// one request tree in sampleEvery.
func (n spanName) rare() bool {
	switch n {
	case spanServe, spanReplay, spanAdjust:
		return false
	}
	return true
}

const sampleEvery = 256

// span is one finished span. Times are nanoseconds since the tracer's
// epoch (monotonic clock).
type span struct {
	ID, Parent int64
	Lane       int
	Name       spanName
	Start, End int64
}

// agg accumulates every span of one name on one lane, sampled or not.
type agg struct {
	count, total, self int64
}

type openSpan struct {
	id     int64
	name   spanName
	start  int64
	child  int64 // summed duration of finished direct children
	keep   bool
	parent int64
}

// lane records the spans of one goroutine: spans on a lane nest strictly,
// so a span's children are exactly the spans that open and close while it
// is the innermost open one, and its self time is its duration minus
// theirs. A lane is not safe for concurrent use; each goroutine that
// records gets its own, and they are read after that goroutine has
// finished.
type lane struct {
	tr    *tracer
	id    int
	root  int64 // parent of the lane's top-level spans (0: none)
	seq   int64
	next  int64
	stack []openSpan
	aggs  [numSpanNames]agg
	top   []interval // top-level spans, in order
	kept  []span
}

type interval struct{ start, end int64 }

func (l *lane) now() int64 { return int64(time.Since(l.tr.epoch)) }

func (l *lane) begin(name spanName) {
	l.next++
	o := openSpan{id: int64(l.id)<<40 | l.next, name: name, parent: l.root}
	if d := len(l.stack); d > 0 {
		o.parent = l.stack[d-1].id
		o.keep = l.stack[d-1].keep
	} else {
		o.keep = l.seq%sampleEvery == 0
		l.seq++
	}
	if name.rare() && !o.keep {
		// Keep the whole ancestry of a rare span, so the written trace
		// never names a parent it does not hold.
		o.keep = true
		for i := range l.stack {
			l.stack[i].keep = true
		}
	}
	o.start = l.now()
	l.stack = append(l.stack, o)
}

func (l *lane) end() {
	t := l.now()
	d := len(l.stack) - 1
	o := l.stack[d]
	l.stack = l.stack[:d]
	dur := t - o.start
	a := &l.aggs[o.name]
	a.count++
	a.total += dur
	a.self += dur - o.child
	if d > 0 {
		l.stack[d-1].child += dur
	} else {
		l.top = append(l.top, interval{o.start, t})
	}
	if o.keep {
		l.kept = append(l.kept, span{ID: o.id, Parent: o.parent, Lane: l.id, Name: o.name, Start: o.start, End: t})
	}
}

// busy is the summed duration of the lane's top-level spans.
func (l *lane) busy() int64 {
	var s int64
	for _, iv := range l.top {
		s += iv.end - iv.start
	}
	return s
}

// tracer owns the lanes of one benchmark run.
type tracer struct {
	epoch time.Time
	lanes []*lane
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newLane registers a lane whose top-level spans are children of root.
// Lanes are created on the goroutine that later hands them to their
// recording goroutine, before that goroutine starts.
func (t *tracer) newLane(root int64) *lane {
	l := &lane{tr: t, id: len(t.lanes), root: root}
	t.lanes = append(t.lanes, l)
	return l
}

// total sums one span name over every lane.
func (t *tracer) total(name spanName) agg {
	var s agg
	for _, l := range t.lanes {
		a := l.aggs[name]
		s.count += a.count
		s.total += a.total
		s.self += a.self
	}
	return s
}

// coveredBy returns how much of [outer.start, outer.end) the union of the
// intervals covers. Intervals from several lanes may overlap.
func coveredBy(outer interval, ivs []interval) int64 {
	sorted := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < outer.start {
			iv.start = outer.start
		}
		if iv.end > outer.end {
			iv.end = outer.end
		}
		if iv.end > iv.start {
			sorted = append(sorted, iv)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var covered int64
	cur := interval{-1, -1}
	for _, iv := range sorted {
		if iv.start > cur.end {
			covered += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return covered + cur.end - cur.start
}

// write stores every kept span as one JSON object per line.
func (t *tracer) write(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, l := range t.lanes {
		for _, s := range l.kept {
			rec := struct {
				ID      int64  `json:"id"`
				Parent  int64  `json:"parent"`
				Lane    int    `json:"lane"`
				Name    string `json:"name"`
				StartNs int64  `json:"start_ns"`
				EndNs   int64  `json:"end_ns"`
			}{s.ID, s.Parent, s.Lane, s.Name.String(), s.Start, s.End}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return n, fmt.Errorf("writing span file: %w", err)
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, fmt.Errorf("writing span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("closing span file: %w", err)
	}
	return n, nil
}
