package colorful

import (
	"context"
	"errors"
	"time"

	"colorfulxml/internal/obs"
)

// DB-level instruments: query traffic by route (compiled plan, evaluator
// fallback, constructor), end-to-end query latency, context cancellations,
// snapshot maintenance mirrored from MaintStats, and checkpoint activity.
// Every DB in the process feeds the same process-wide instruments; per-DB
// numbers remain available through MaintStats and DurabilityStats.
var (
	obsQueries       = obs.NewCounter("db_queries_total")
	obsCompiled      = obs.NewCounter("db_compiled_queries_total")
	obsCachedQueries = obs.NewCounter("db_cached_queries_total")
	obsFallbacks     = obs.NewCounter("db_evaluator_fallbacks_total")
	obsConstructors  = obs.NewCounter("db_constructor_queries_total")
	obsQueryErrors   = obs.NewCounter("db_query_errors_total")
	obsCancellations = obs.NewCounter("db_ctx_cancellations_total")
	obsUpdates       = obs.NewCounter("db_updates_total")
	obsSlowQueries   = obs.NewCounter("db_slow_queries_total")

	// Why a query ran on the reference evaluator. db_evaluator_fallbacks_total
	// stays the count of read-only queries that did (the first three
	// reasons); constructor queries run there by design and were never part
	// of it. core_moved: commits moved core past the snapshot on every
	// compiled attempt (compiledAttempts) before the values were mapped.
	obsFallbackUnsupported = obs.NewLabeledCounter("db_evaluator_fallbacks_total", "reason", "unsupported")
	obsFallbackParse       = obs.NewLabeledCounter("db_evaluator_fallbacks_total", "reason", "parse_error")
	obsFallbackCoreMoved   = obs.NewLabeledCounter("db_evaluator_fallbacks_total", "reason", "core_moved")
	obsFallbackConstructor = obs.NewLabeledCounter("db_evaluator_fallbacks_total", "reason", "constructor")

	// How updates bound their tuples: the compiled plan on the snapshot, or
	// the tree-walking evaluator because the compiler rejected the clauses.
	obsBindCompiled  = obs.NewLabeledCounter("db_update_binds_total", "route", "compiled")
	obsBindEvaluator = obs.NewLabeledCounter("db_update_binds_total", "route", "evaluator")

	// Where compiled queries read their result values: the snapshot's element
	// records (no lock), or live core nodes under the DB lock because the
	// output was not a leaf of the data (valueSource). Counted per item.
	obsValuesSnapshot = obs.NewLabeledCounter("db_result_values_total", "source", "snapshot")
	obsValuesCore     = obs.NewLabeledCounter("db_result_values_total", "source", "core")
	// Compiled queries run again because a commit moved core past their
	// snapshot before the core-sourced values were mapped (coreItems).
	obsCoreRetries = obs.NewCounter("db_core_route_retries_total")

	obsQueryNanos = obs.NewHistogram("db_query_nanos")

	obsSnapApplies   = obs.NewCounter("db_snapshot_incremental_applies_total")
	obsSnapRebuilds  = obs.NewCounter("db_snapshot_full_rebuilds_total")
	obsSnapPublishes = obs.NewCounter("db_snapshot_publishes_total")

	obsCheckpoints     = obs.NewCounter("db_checkpoints_total")
	obsCheckpointNanos = obs.NewHistogram("db_checkpoint_nanos")

	// Fault-tolerance instruments (see health.go): the health gauge holds the
	// Health enum value (0 healthy, 1 degraded-readonly, 2 failed).
	obsCommitErrors      = obs.NewCounter("db_durability_commit_errors_total")
	obsDegrades          = obs.NewCounter("db_degrades_total")
	obsHeals             = obs.NewCounter("db_heals_total")
	obsMutationsRejected = obs.NewCounter("db_mutations_rejected_total")
	obsProbes            = obs.NewCounter("db_health_probes_total")
	obsHealthState       = obs.NewGauge("db_health_state")
)

// SlowQuery re-exports the slow-query log entry type.
type SlowQuery = obs.SlowQuery

// slowLogCapacity is the number of slow-query entries each DB retains.
const slowLogCapacity = 32

// queryRoute classifies how a query was served, for metrics and the slow log.
type queryRoute int8

const (
	// routeCompiled: the automatic plan compiler + streaming engine.
	routeCompiled queryRoute = iota
	// routeEvaluator: the reference evaluator, because the compiler rejected
	// the query (plan.ErrUnsupported), it failed to parse, or commits kept
	// moving core past its snapshot (errCoreMoved).
	routeEvaluator
	// routeConstructor: the evaluator under the writer lock, because the
	// query constructs nodes.
	routeConstructor
	// routeCached: the compiled route served by a plan-cache (or prepared
	// statement) hit — parse/compile skipped.
	routeCached
)

// SetSlowQueryThreshold enables the slow-query log: queries taking at least
// threshold land in a ring buffer retaining the most recent offenders,
// each entry carrying the query text, latency, row count, and — for
// successful compiled queries — the physical plan annotated with
// per-operator execution statistics. A zero or negative threshold disables
// logging (the default). Safe to call at any time.
func (d *DB) SetSlowQueryThreshold(threshold time.Duration) {
	d.slowThreshold.Store(int64(threshold))
}

// SlowQueries returns the retained slow-query log entries, newest first.
func (d *DB) SlowQueries() []SlowQuery { return d.slow.Entries() }

// observeQuery records one finished query: traffic counters, the latency
// histogram, and (past the threshold) a slow-log entry. It runs with no DB
// locks held, so the plan re-analysis for the slow log is safe.
func (d *DB) observeQuery(src string, nanos int64, rows int, route queryRoute, err error) {
	obsQueries.Inc()
	obsQueryNanos.Observe(nanos)
	switch route {
	case routeCompiled:
		obsCompiled.Inc()
	case routeCached:
		obsCachedQueries.Inc()
	case routeEvaluator:
		obsFallbacks.Inc()
	case routeConstructor:
		obsConstructors.Inc()
	}
	if err != nil {
		obsQueryErrors.Inc()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			obsCancellations.Inc()
		}
	}
	thr := d.slowThreshold.Load()
	if thr <= 0 || nanos < thr {
		return
	}
	obsSlowQueries.Inc()
	e := SlowQuery{
		Query:     src,
		Millis:    float64(nanos) / 1e6,
		Rows:      rows,
		Fallback:  route != routeCompiled && route != routeCached,
		UnixNanos: time.Now().UnixNano(),
	}
	if err != nil {
		e.Err = err.Error()
	} else if route == routeCompiled || route == routeCached {
		// Capture the annotated physical plan by re-analyzing against the
		// current snapshot. Best-effort: a failed re-analysis just leaves the
		// plan empty.
		if text, perr := d.Explain(src); perr == nil {
			e.Plan = text
		}
	}
	d.slow.Add(e)
}

// bindFallbackTexts caps how many distinct update texts noteBindFallback
// remembers (and therefore logs): texts usually differ only in a literal, and
// the slow log is a 32-entry ring that slow queries need too.
const bindFallbackTexts = 256

// noteBindFallback records, once per distinct update text, why the update's
// binding clauses ran on the tree-walking evaluator: a slow-log entry whose
// error is the compiler's reason. Called with no DB lock held.
func (d *DB) noteBindFallback(src string, reason error) {
	d.bindFallbackMu.Lock()
	_, seen := d.bindFallbacks[src]
	if !seen && len(d.bindFallbacks) < bindFallbackTexts {
		d.bindFallbacks[src] = struct{}{}
	} else {
		seen = true
	}
	d.bindFallbackMu.Unlock()
	if seen {
		return
	}
	d.slow.Add(SlowQuery{
		Query:     src,
		Fallback:  true,
		Err:       reason.Error(),
		UnixNanos: time.Now().UnixNano(),
	})
}
