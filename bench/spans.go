package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cronus/internal/metrics"
)

// span is one timed call the harness made into a layer. Start and End are
// host nanoseconds since the tracer was created; Parent is the enclosing
// span's ID (-1 at the root); Counters holds the metrics.Default counter
// growth between the same two instants, so ratios are taken where the work
// happened.
type span struct {
	ID       int               `json:"id"`
	Parent   int               `json:"parent"`
	Workload string            `json:"workload"`
	Name     string            `json:"name"`
	Start    int64             `json:"start_ns"`
	End      int64             `json:"end_ns"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// tracer records harness-side spans in memory. A nil *tracer is the untraced
// run: every method is a no-op, so workload code brackets its calls the same
// way in both runs and the untraced one pays one nil check.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	stack    []int
	pre      []*metrics.Snapshot // counter snapshot at each open span's start
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name})
	t.stack = append(t.stack, id)
	t.pre = append(t.pre, metrics.Default.Snapshot())
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
}

// end closes the innermost open span and returns its counter deltas.
func (t *tracer) end() map[string]uint64 {
	if t == nil || len(t.stack) == 0 {
		return nil
	}
	now := time.Since(t.t0).Nanoseconds()
	id := t.stack[len(t.stack)-1]
	pre := t.pre[len(t.pre)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.pre = t.pre[:len(t.pre)-1]
	post := metrics.Default.Snapshot()
	deltas := make(map[string]uint64)
	for name, v := range post.Counters {
		if d := v - pre.Counters[name]; d != 0 {
			deltas[name] = d
		}
	}
	t.spans[id].End = now
	t.spans[id].Counters = deltas
	return deltas
}

// in runs f inside a span.
func (t *tracer) in(name string, f func() error) error {
	t.begin(name)
	err := f()
	t.end()
	return err
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children are
// merged, so cover never exceeds the parent's duration).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var cover, hi int64
		hi = s.Start
		for _, c := range iv {
			lo, end := c[0], c[1]
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				cover += end - lo
				hi = end
			}
		}
		out[s.ID] = (s.End - s.Start) - cover
	}
	return out
}

// spanFile is what flush writes: the raw spans plus per-name totals.
type spanFile struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Spans    []span         `json:"spans"`
	ByName   []spanNameStat `json:"by_name"`
}

type spanNameStat struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// flush writes the spans to dir/<workload>-seed<seed>.spans.json and returns
// the path. Called once, when the run ends.
func (t *tracer) flush(dir string, seed int64) (string, error) {
	if t == nil {
		return "", nil
	}
	self := selfTimes(t.spans)
	agg := make(map[string]*spanNameStat)
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &spanNameStat{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.TotalNS += s.End - s.Start
		a.SelfNS += self[s.ID]
	}
	file := spanFile{Workload: t.workload, Seed: seed, Spans: t.spans}
	for _, a := range agg {
		file.ByName = append(file.ByName, *a)
	}
	sort.Slice(file.ByName, func(i, j int) bool { return file.ByName[i].Name < file.ByName[j].Name })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span flush: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", t.workload, seed))
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return "", fmt.Errorf("span flush: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("span flush: %w", err)
	}
	return path, nil
}
