package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Spans of one traced
// operation share a run id; a parent of 0 marks a root.
type span struct {
	Run    int           `json:"run"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory on host time. Spans nest by a stack of open
// spans, so a span begun while another is open becomes its child. A nil
// tracer records nothing, which is how the timed runs call the same code
// untraced. A tracer is not safe for concurrent use.
type tracer struct {
	origin time.Time
	run    int
	spans  []span
	open   []int // ids of open spans, innermost last
}

// newTracer starts a tracer whose timestamps count from now.
func newTracer() *tracer {
	return &tracer{
		origin: hostNow(),
		spans:  make([]span, 0, 1<<16),
	}
}

// now is host time since the tracer's origin.
func (t *tracer) now() time.Duration {
	return hostSince(t.origin)
}

// beginRun starts a new run id: the root spans that follow belong to it.
func (t *tracer) beginRun() {
	if t != nil {
		t.run++
	}
}

// begin opens a span as a child of the innermost open span and returns its
// id (0 on a nil tracer).
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, closing any span still open inside it first.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	at := t.now()
	for n := len(t.open); n > 0; n = len(t.open) {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		t.spans[top-1].End = at
		if top == id {
			return
		}
	}
}

// endInnermostPrefix closes the innermost open span if its name starts
// with prefix. Event-driven spans (the supervisor's rung actions) end this
// way, at the next event.
func (t *tracer) endInnermostPrefix(prefix string) {
	if t == nil || len(t.open) == 0 {
		return
	}
	if top := t.open[len(t.open)-1]; strings.HasPrefix(t.spans[top-1].Name, prefix) {
		t.end(top)
	}
}

// reserve grows the span buffer ahead of n more spans, so that a measured
// call's allocations never include the tracer's own.
func (t *tracer) reserve(n int) {
	if t != nil && cap(t.spans)-len(t.spans) < n {
		t.spans = append(make([]span, 0, 2*cap(t.spans)+n), t.spans...)
	}
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the part of its interval covered by its direct children. Children
// may overlap one another or stick out of the parent; only the union of
// their clipped intervals is subtracted.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[s.ID])
	}
	return self
}

// covered is the length of the union of the child intervals clipped to the
// parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
