package obs

import (
	"fmt"
	"io"
)

// HistStat is the exported view of one histogram: totals plus the p50/p95/p99
// latency points Section 7-style reporting wants.
type HistStat struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Max   int64   `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of a registry, JSON-encodable as-is (the
// shape mctserved -obs-dump writes and /debug/metrics serves).
type Snapshot struct {
	Counters   map[string]uint64   `json:"counters"`
	Gauges     map[string]int64    `json:"gauges,omitempty"`
	Histograms map[string]HistStat `json:"histograms"`
}

// statOf summarizes one histogram.
func statOf(h *Histogram) HistStat {
	return HistStat{
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Snapshot copies every instrument's current state. Writers are not stopped;
// each instrument is read atomically, so the snapshot is consistent per
// instrument and approximately consistent across them.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistStat, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = statOf(h)
	}
	return s
}

// WriteText renders the snapshot as sorted "kind name value" lines, the
// plain-text format of /debug/metrics?format=text.
func (s *Snapshot) WriteText(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "histogram %s count=%d sum=%d max=%d p50=%.0f p95=%.0f p99=%.0f\n",
			name, h.Count, h.Sum, h.Max, h.P50, h.P95, h.P99); err != nil {
			return err
		}
	}
	return nil
}
