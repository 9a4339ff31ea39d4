// Package metrics exercises the obsregister registration rules.
package metrics

import "obsregisterfix/internal/obs"

// Package-level var initializers are the sanctioned registration site.
var (
	queries  = obs.NewCounter("db_queries_total")
	inflight = obs.NewGauge("db_inflight_queries")
	latency  = obs.NewHistogram("db_query_nanos")
	custom   = obs.Default.Counter("db_custom_total")
)

// init functions are equally sanctioned.
var retries *obs.Counter

func init() {
	retries = obs.NewCounter("db_retries_total")
}

// Registration reachable from a request path is a latent panic.
func lazyRegister() *obs.Counter {
	return obs.NewCounter("db_lazy_total") // want "outside package init"
}

func lazyMethod(r *obs.Registry) *obs.Histogram {
	return r.Histogram("db_lazy_nanos") // want "outside package init"
}

// Instrument names must be subsystem_name snake_case.
var camel = obs.NewCounter("dbQueriesTotal") // want "not subsystem_name snake_case"

var bare = obs.NewGauge("queries") // want "not subsystem_name snake_case"

// A computed name defeats the static duplicate check.
func dynamic(suffix string) {
	obs.NewCounter("db_" + suffix + "_total") // want "outside package init" // want "string literal"
}

// Second registration of a name already claimed by the var block above.
var dup = obs.NewCounter("db_queries_total") // want "already registered"

// A labeled family registers one series per literal value, next to its
// unlabeled total; the series is what must not repeat.
var (
	queriesFast = obs.NewLabeledCounter("db_queries_total", "route", "fast")
	queriesSlow = obs.NewLabeledCounter("db_queries_total", "route", "slow")
	queriesDup  = obs.NewLabeledCounter("db_queries_total", "route", "fast") // want "already registered"
)

func labeled(route string) {
	obs.NewLabeledCounter("db_queries_total", "route", route) // want "outside package init" // want "label and value must be string literals"
}
