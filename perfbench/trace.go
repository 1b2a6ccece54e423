package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a call into one layer's public
// entry point, made from the benchmark's own code. Spans of one operation
// share Op; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Self   float64 `json:"self_ms"`
}

// tracer keeps every span in memory; write derives self times and stores
// them when the run ends. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation id.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes a span and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// durations returns the duration of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// withSelf returns a copy of the spans with Self set: a span's duration minus
// the part of its interval that its children cover.
func (t *tracer) withSelf() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return spans
}

// spanSummary is one span name's row in the written trace.
type spanSummary struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	MedianMS float64 `json:"median_ms"`
	SelfMS   float64 `json:"median_self_ms"`
}

// write stores every span and a per-name summary as JSON at path.
func (t *tracer) write(path string) error {
	spans := t.withSelf()
	byName := make(map[string][2][]float64)
	for _, s := range spans {
		d := byName[s.Name]
		d[0] = append(d[0], s.End-s.Start)
		d[1] = append(d[1], s.Self)
		byName[s.Name] = d
	}
	var summary []spanSummary
	for name, d := range byName {
		summary = append(summary, spanSummary{name, len(d[0]), median(d[0]), median(d[1])})
	}
	sort.Slice(summary, func(a, b int) bool { return summary[a].Name < summary[b].Name })
	raw, err := json.MarshalIndent(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{summary, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
