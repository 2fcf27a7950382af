package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"inframe/internal/metrics"
)

// span is one timed call into a pipeline layer. Spans of one pass share a
// run id; Parent is the id of the enclosing span, or -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer records spans in memory. A nil *tracer is the untraced mode: every
// method is a no-op, so one code path serves both modes.
type tracer struct {
	origin time.Time
	run    string
	runs   []string // every run id, in order
	spans  []span
	open   []int // stack of open span ids
	// counts are event tallies recorded at the same call boundaries.
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{origin: time.Now(), counts: make(map[string]int64)} }

// count adds n to the named tally.
func (t *tracer) count(name string, n int) {
	if t != nil {
		t.counts[name] += int64(n)
	}
}

// setRun starts a new run id; spans begun afterwards carry it.
func (t *tracer) setRun(run string) {
	if t != nil {
		t.run = run
		t.runs = append(t.runs, run)
	}
}

// runName is the id of the i-th run.
func (t *tracer) runName(i int) string { return t.runs[i] }

// begin opens a span named name under the innermost open span and returns
// its id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, StartNs: time.Since(t.origin).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.spans[id].EndNs = time.Since(t.origin).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// layerStats aggregates every span of one name.
type layerStats struct {
	Name    string         `json:"name"`
	Count   int            `json:"count"`
	TotalS  float64        `json:"total_s"`
	SelfS   float64        `json:"self_s"`
	P50Ms   float64        `json:"p50_ms"`
	P99Ms   float64        `json:"p99_ms"`
	samples metrics.Series // per-span durations, ms
}

// aggregate computes per-name totals, self time and duration percentiles.
// A span's self time is its duration minus the union of its children's
// intervals; children never overlap here (every pass is sequential), so
// the union is their sum.
func (t *tracer) aggregate() map[string]*layerStats {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]*layerStats)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStats{Name: s.Name}
			out[s.Name] = st
		}
		st.Count++
		st.TotalS += s.seconds()
		st.SelfS += float64(s.EndNs-s.StartNs-child[i]) / 1e9
		st.samples.Add(s.seconds() * 1e3)
	}
	for _, st := range out {
		st.P50Ms = st.samples.Percentile(0.50)
		st.P99Ms = st.samples.Percentile(0.99)
	}
	return out
}

// write dumps the spans, their aggregates and the run context as JSON.
func (t *tracer) write(path string, context map[string]any) error {
	agg := t.aggregate()
	layers := make([]*layerStats, 0, len(agg))
	for _, n := range sortedKeys(agg) {
		layers = append(layers, agg[n])
	}
	doc := map[string]any{"context": context, "layers": layers, "counts": t.counts, "spans": t.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median is the 0.5 quantile with the midpoint rule for even counts (the
// nearest-rank metrics.Series.Percentile would pick the lower middle).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
