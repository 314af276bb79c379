package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans of one request share Req;
// Parent indexes the enclosing span (-1 for a request's root).
type Span struct {
	Name       string
	Req        int64
	Parent     int
	Start, End time.Duration // since the recorder started
}

// Recorder keeps spans in memory until the run ends. The nil *Recorder
// records nothing, so untraced runs pay one nil check per call site.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its handle for End.
func (r *Recorder) Begin(req int64, parent int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// End closes the span Begin returned.
func (r *Recorder) End(h int) {
	if r == nil || h < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[h].End = now
	r.mu.Unlock()
}

// Do runs fn inside a span.
func (r *Recorder) Do(req int64, parent int, name string, fn func()) {
	h := r.Begin(req, parent, name)
	fn()
	r.End(h)
}

// Spans returns a copy of the closed spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// LayerReport is what a trace says about each layer.
type LayerReport struct {
	Self  map[string]time.Duration // summed self time per span name
	Count map[string]int           // spans per name
	// Roots and Covered sum, over root spans named by Report's root
	// argument, their duration and the part of it some child span covers:
	// Covered/Roots is trace.coverage.
	Roots, Covered time.Duration
}

// Report computes self times: a span's duration minus the union of the
// intervals its direct children cover (clipped to the span).
func Report(spans []Span, root string) LayerReport {
	rep := LayerReport{Self: map[string]time.Duration{}, Count: map[string]int{}}
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		covered := union(s, spans, children[i])
		rep.Self[s.Name] += s.End - s.Start - covered
		rep.Count[s.Name]++
		if s.Parent < 0 && s.Name == root {
			rep.Roots += s.End - s.Start
			rep.Covered += covered
		}
	}
	return rep
}

// union measures how much of parent's interval the given spans cover.
func union(parent Span, spans []Span, idx []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, i := range idx {
		a, b := spans[i].Start, spans[i].End
		if b < a {
			continue
		}
		a, b = max(a, parent.Start), min(b, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	have := false
	for _, v := range ivs {
		if have && v.a <= cur.b {
			cur.b = max(cur.b, v.b)
			continue
		}
		if have {
			total += cur.b - cur.a
		}
		cur, have = v, true
	}
	if have {
		total += cur.b - cur.a
	}
	return total
}
