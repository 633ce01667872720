package main

import (
	"sort"
	"sync"
	"time"
)

// Spans are recorded here, in the benchmark, around the calls into each
// layer: the layers themselves carry no instrumentation yet, so a span
// is "the benchmark called core.Allocate at start and it returned at
// end". A nil *tracer records nothing, which is how the untraced pass
// runs the identical code path.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root of its repetition
	Rep    int    `json:"rep"`    // shared by every span of one repetition
	Name   string `json:"name"`
	// StartUS and EndUS are microseconds since the tracer was created.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

type tracer struct {
	origin time.Time
	mu     sync.Mutex
	rep    int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 {
	return float64(time.Since(t.origin)) / float64(time.Microsecond)
}

// nextRep opens a new repetition; spans started afterwards share its id.
func (t *tracer) nextRep() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep++
	t.mu.Unlock()
}

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Name: name, StartUS: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// all returns the finished spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the duration in microseconds of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover (overlapping children
// are merged first, so concurrent children are not subtracted twice).
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, edge := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, edge), min(k.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
