package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans live in memory for the
// whole run and are written out once, when the run ends, so recording
// costs an append and two clock reads.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int    `json:"req"`    // request (program analysis) the span belongs to
}

// tracer records spans at the layer boundaries the benchmark calls
// into. A nil *tracer records nothing, so untraced code paths share the
// traced ones.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  start.Sub(t.epoch).Nanoseconds(),
		End:    end.Sub(t.epoch).Nanoseconds(),
		Parent: parent,
		Req:    req,
	})
	return len(t.spans) - 1
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Now()
	return t.add(name, now, now, parent, req)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
}

// layer names the layer a span belongs to: its name up to the first dot
// ("core.classify" is core work).
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int) int { return int(t.spans[a].Start - t.spans[b].Start) })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[layer(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
