package obs

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Span is one node of a per-query trace tree: a named begin/end interval
// with ordered attributes and child spans. Spans are cheap (no global
// registration, no sampling machinery) and safe for concurrent use.
//
// The tree exports as JSON via MarshalJSON / (*Span).JSON; durations are
// monotonic nanoseconds. Synthetic spans (per-operator attribution built
// after a run from engine statistics) override their measured duration with
// SetDurNanos.
type Span struct {
	mu       sync.Mutex
	name     string
	start    int64 // Nanos() at creation
	dur      int64 // -1 while open
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// NewSpan starts a root span.
func NewSpan(name string) *Span {
	return &Span{name: name, start: Nanos(), dur: -1}
}

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// Child starts a child span. Safe to call from several goroutines on the
// same parent; sibling order is the order of Child calls.
func (s *Span) Child(name string) *Span {
	c := NewSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr annotates the span; the value is rendered with fmt.Sprint.
func (s *Span) SetAttr(key string, value any) {
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: fmt.Sprint(value)})
	s.mu.Unlock()
}

// End closes the span, fixing its duration; a second End is a no-op, and a
// duration installed by SetDurNanos is preserved.
func (s *Span) End() {
	now := Nanos()
	s.mu.Lock()
	if s.dur < 0 {
		s.dur = now - s.start
	}
	s.mu.Unlock()
}

// SetDurNanos overrides the measured duration (for synthesized spans whose
// timing was accumulated elsewhere); it also closes the span.
func (s *Span) SetDurNanos(n int64) {
	s.mu.Lock()
	s.dur = n
	s.mu.Unlock()
}

// DurNanos returns the span's duration, or the time since start while open.
func (s *Span) DurNanos() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur < 0 {
		return Nanos() - s.start
	}
	return s.dur
}

// Children returns the current child spans (shared, do not mutate).
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.children
}

// Find returns the first span named name in a pre-order walk of the tree
// rooted at s (including s), or nil.
func (s *Span) Find(name string) *Span {
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// spanJSON is the wire shape of one span.
type spanJSON struct {
	Name     string  `json:"name"`
	StartNs  int64   `json:"start_ns"`
	DurNs    int64   `json:"dur_ns"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// MarshalJSON renders the span tree. Open spans report their duration so
// far.
func (s *Span) MarshalJSON() ([]byte, error) {
	s.mu.Lock()
	j := spanJSON{
		Name:     s.name,
		StartNs:  s.start,
		DurNs:    s.dur,
		Attrs:    s.attrs,
		Children: s.children,
	}
	if j.DurNs < 0 {
		j.DurNs = Nanos() - s.start
	}
	s.mu.Unlock()
	return json.Marshal(j)
}
