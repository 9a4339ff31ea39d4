// Package obs is a fixture stub of the repository's instrument registry.
// The package itself is exempt from the obsregister analyzer: its
// constructors are the registration machinery.
package obs

type Counter struct{}

type Gauge struct{}

type Histogram struct{}

type Registry struct{}

var Default = &Registry{}

func (r *Registry) Counter(name string) *Counter { return &Counter{} }

func (r *Registry) LabeledCounter(name, label, value string) *Counter { return &Counter{} }

func (r *Registry) Gauge(name string) *Gauge { return &Gauge{} }

func (r *Registry) Histogram(name string) *Histogram { return &Histogram{} }

func NewCounter(name string) *Counter { return Default.Counter(name) }

func NewLabeledCounter(name, label, value string) *Counter {
	return Default.LabeledCounter(name, label, value)
}

func NewGauge(name string) *Gauge { return Default.Gauge(name) }

func NewHistogram(name string) *Histogram { return Default.Histogram(name) }
