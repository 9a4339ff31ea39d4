// Package obs is the stdlib-only observability substrate of the MCT system:
// a process-wide registry of atomic instruments (counters, gauges, bounded
// histograms with quantile estimation), lightweight trace spans forming
// per-query trees, a slow-query ring buffer, and a monotonic clock facade.
//
// Design rules, enforced at registration (checkName panics, so a package
// that breaks one fails at init in the first test that imports it, and a
// duplicate across packages fails the binary that links both):
//
//   - instruments are registered exactly once, at package init time (a
//     package-level var block or an init function), never from request
//     paths — registration takes a lock, recording never does;
//   - instrument names are snake_case with a subsystem prefix
//     ("wal_fsyncs_total", "engine_exec_nanos"), so a registry snapshot
//     groups naturally by layer.
//
// Recording is wait-free: counters and gauges are single atomic adds,
// histogram observation is two atomic adds into a fixed bucket array.
// Subsystems therefore keep their instruments always on; the cost is a few
// nanoseconds per event, and snapshots (Registry.Snapshot) are consistent
// enough for monitoring without stopping writers.
//
// The determinism-critical packages (internal/wal, internal/storage,
// internal/pagestore, internal/crashtest) must not read the wall clock
// directly; they time their work through Start/Nanos here, which the
// determinism analyzer exempts outside crashtest and WAL-encode paths
// (timing feeds metrics only, never encoded bytes).
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors the package's monotonic clock; all Nanos readings are
// relative to process start, so spans and stopwatches subtract cleanly.
var epoch = time.Now()

// Nanos returns the monotonic clock reading in nanoseconds since process
// start. It is the sanctioned time source for determinism-critical packages:
// the value feeds instruments and spans, never encoded state.
func Nanos() int64 { return int64(time.Since(epoch)) }

// Stopwatch measures one duration: Start it, then ElapsedNanos.
type Stopwatch struct{ start int64 }

// Start begins a stopwatch at the current monotonic reading.
func Start() Stopwatch { return Stopwatch{start: Nanos()} }

// ElapsedNanos returns nanoseconds since Start.
func (s Stopwatch) ElapsedNanos() int64 { return Nanos() - s.start }

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use (unregistered, for local accumulation); registered counters
// come from Registry.Counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (set or adjusted, may decrease).
// The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (negative allowed).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// nameRe is the instrument naming rule: snake_case with at least two
// segments, the first being the owning subsystem ("wal_fsyncs_total").
var nameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// Registry holds named instruments. Registration (Counter, Gauge,
// Histogram) locks and is meant for init time; Snapshot locks only the
// name tables, reading instrument state atomically.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Default is the process-wide registry every subsystem registers into and
// the /debug/metrics endpoint and the repository benchmark read from.
var Default = NewRegistry()

// checkName panics on a malformed or duplicate instrument name; both are
// programming errors at init time, caught by the first test that imports
// the offending package.
func (r *Registry) checkName(name string) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: instrument name %q is not subsystem_name snake_case", name))
	}
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: instrument %q registered twice", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: instrument %q registered twice", name))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("obs: instrument %q registered twice", name))
	}
}

// Counter registers and returns a new named counter. Panics on a malformed
// or duplicate name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// labelRe is the shape of a label key and of a label value: one snake_case
// word, so a rendered series name needs no escaping.
var labelRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// LabeledCounter registers and returns one series of a labeled counter
// family, rendered name{label="value"} in snapshots. Series of a family are
// registered one by one, each under a literal value; an unlabeled counter of
// the same name may coexist as the family's own total. Panics on a malformed
// name, label or value, or a duplicate series.
func (r *Registry) LabeledCounter(name, label, value string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !nameRe.MatchString(name) || !labelRe.MatchString(label) || !labelRe.MatchString(value) {
		panic(fmt.Sprintf("obs: malformed labeled counter %s{%s=%q}", name, label, value))
	}
	series := fmt.Sprintf("%s{%s=%q}", name, label, value)
	if _, ok := r.counters[series]; ok {
		panic(fmt.Sprintf("obs: instrument %s registered twice", series))
	}
	c := &Counter{}
	r.counters[series] = c
	return c
}

// Gauge registers and returns a new named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram registers and returns a new named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	h := &Histogram{}
	r.histograms[name] = h
	return h
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewLabeledCounter registers one series of a labeled counter family in the
// Default registry.
func NewLabeledCounter(name, label, value string) *Counter {
	return Default.LabeledCounter(name, label, value)
}

// NewGauge registers a gauge in the Default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name string) *Histogram { return Default.Histogram(name) }

// sortedKeys returns the sorted key set of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
