package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Spans are recorded by the benchmark, from outside the program, around
// calls into each layer's public functions. They stay in memory and are
// written out when the run ends. A nil *tracer records nothing, so the
// untraced loop pays only nil checks.

var processStart = time.Now()

func sinceStart() int64 { return int64(time.Since(processStart)) }

type span struct {
	name       string
	start, end int64 // ns since process start
	parent     int32 // index into the same tracer, -1 for roots
	op         int64 // op id shared by all spans of one op; -1 for probes
	calls      int32 // calls covered (ns-scale probes time a batch per span)
}

type tracer struct {
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, calls: 1, start: sinceStart()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = sinceStart()
}

// perCall returns the sorted per-call durations (ns) of every span with the
// given name.
func (t *tracer) perCall(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/float64(s.calls))
		}
	}
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of sorted values (nearest rank), 0 if
// there are none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// spanSummary is one row of the per-name table in the trace file: a name's
// self time is its spans' duration minus the part their children cover.
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	P50Ns  float64 `json:"p50_ns"`
	SelfMs float64 `json:"self_ms"`
	DurMs  float64 `json:"dur_ms"`
}

// traceFile is the on-disk form: a name table plus one compact row per span
// (name index, start, end, parent, op, calls), grouped by recording client.
type traceFile struct {
	Workload string        `json:"workload"`
	Env      environment   `json:"env"`
	Names    []string      `json:"names"`
	Columns  []string      `json:"columns"`
	Clients  [][][6]int64  `json:"clients"`
	Summary  []spanSummary `json:"summary"`
}

func writeTrace(path, workload string, env environment, tracers []*tracer) error {
	f := traceFile{Workload: workload, Env: env,
		Columns: []string{"name", "start_ns", "end_ns", "parent", "op", "calls"}}
	nameIdx := map[string]int{}
	type agg struct {
		durs      []float64
		self, dur int64
	}
	aggs := map[string]*agg{}
	for _, t := range tracers {
		covered := make([]int64, len(t.spans)) // time covered by direct children
		rows := make([][6]int64, len(t.spans))
		for i, s := range t.spans {
			if _, ok := nameIdx[s.name]; !ok {
				nameIdx[s.name] = len(f.Names)
				f.Names = append(f.Names, s.name)
				aggs[s.name] = &agg{}
			}
			rows[i] = [6]int64{int64(nameIdx[s.name]), s.start, s.end, int64(s.parent), s.op, int64(s.calls)}
			if s.parent >= 0 {
				covered[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			a := aggs[s.name]
			d := s.end - s.start
			a.durs = append(a.durs, float64(d)/float64(s.calls))
			a.dur += d
			a.self += d - covered[i]
		}
		f.Clients = append(f.Clients, rows)
	}
	for _, name := range f.Names {
		a := aggs[name]
		sort.Float64s(a.durs)
		f.Summary = append(f.Summary, spanSummary{
			Name: name, Count: len(a.durs), P50Ns: quantile(a.durs, 0.5),
			SelfMs: float64(a.self) / 1e6, DurMs: float64(a.dur) / 1e6,
		})
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
