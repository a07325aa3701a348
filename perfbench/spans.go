package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one benchmark-side timed call: a public function of the
// program, an HTTP exchange, or a server span returned by ?trace=1 and
// nested under the client span that carried it. Times are offsets from
// the recorder's epoch.
type Span struct {
	ID     int
	Parent int // 0 for a root
	Name   string
	Req    string // request ID shared by every span of one operation
	Start  time.Duration
	End    time.Duration
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced runs pass nil and pay one nil check.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts a recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Add records a finished span and returns its ID (0 on a nil recorder).
func (r *Recorder) Add(parent int, name, req string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	return r.AddOffsets(parent, name, req, start.Sub(r.epoch), end.Sub(r.epoch))
}

// AddOffsets records a span given as offsets from the epoch.
func (r *Recorder) AddOffsets(parent int, name, req string, start, end time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

// Offset converts an absolute time to the recorder's epoch offset.
func (r *Recorder) Offset(t time.Time) time.Duration { return t.Sub(r.epoch) }

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteNDJSON writes every span as one JSON line, times in
// milliseconds from the epoch.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(struct {
			ID      int     `json:"id"`
			Parent  int     `json:"parent,omitempty"`
			Name    string  `json:"name"`
			Req     string  `json:"req"`
			StartMs float64 `json:"start_ms"`
			EndMs   float64 `json:"end_ms"`
		}{s.ID, s.Parent, s.Name, s.Req, ms(s.Start), ms(s.End)}); err != nil {
			return err
		}
	}
	return nil
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (concurrent shards) and may stick out of the parent; only the
// union of their intersections with the parent is subtracted.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to [lo, hi).
func covered(lo, hi time.Duration, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// SelfByName sums self time per span name, in milliseconds.
func SelfByName(spans []Span) map[string]float64 {
	self := SelfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += ms(self[s.ID])
	}
	return out
}
