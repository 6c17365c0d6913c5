package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// stay in memory until the run ends. A nil *tracer records nothing, which is
// how the untraced (end-to-end) runs call the same code.
type tracer struct {
	origin time.Time
	next   atomic.Int64

	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Start and End are nanoseconds since the
// tracer's origin; Unit names the table cell or session the span belongs to.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Unit   string `json:"unit,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// span is an open span. The zero span belongs to no tracer: ending it and
// opening children of it are no-ops.
type span struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	unit   string
	start  time.Time
}

// begin opens a root span.
func (t *tracer) begin(name, unit string) span {
	if t == nil {
		return span{}
	}
	return span{t: t, id: t.next.Add(1), name: name, unit: unit, start: time.Now()}
}

// child opens a span caused by s, in the same cell or session.
func (s span) child(name string) span {
	if s.t == nil {
		return span{}
	}
	return span{t: s.t, id: s.t.next.Add(1), parent: s.id, name: name, unit: s.unit, start: time.Now()}
}

func (s span) end() {
	if s.t == nil {
		return
	}
	now := time.Now()
	rec := spanRec{
		ID: s.id, Parent: s.parent, Name: s.name, Unit: s.unit,
		Start: int64(s.start.Sub(s.t.origin)), End: int64(now.Sub(s.t.origin)),
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
}

// add records a finished span measured outside begin/end, giving it an id.
func (t *tracer) add(rec spanRec) {
	rec.ID = t.next.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// records returns a copy of the finished spans.
func (t *tracer) records() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// write stores every finished span in path as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.records())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes maps each span id to its self time: its duration minus the part
// of its interval that its children cover. Children may nest or overlap one
// another (control requests overlapping a run wait); each covered instant is
// subtracted once, and a child's time outside its parent is ignored.
func selfTimes(spans []spanRec) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		a, b := max(v[0], cur), min(v[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerOf is the layer a span name belongs to: the text before its first
// dot ("machine.run" is in "machine"). Names without a dot are the
// benchmark's own bookkeeping spans (cells, sessions, setup rounds).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "perfbench"
}

// spanTotals sums self time (ns) and counts spans per span name.
func spanTotals(spans []spanRec) (selfNS map[string]int64, calls map[string]int) {
	self := selfTimes(spans)
	selfNS = make(map[string]int64)
	calls = make(map[string]int)
	for _, s := range spans {
		selfNS[s.Name] += self[s.ID]
		calls[s.Name]++
	}
	return selfNS, calls
}
