package plan

import "colorfulxml/internal/obs"

// Plan-cache instruments: process-wide totals across every Cache instance
// (one per DB today). The per-cache breakdown lives in Cache.Stats, served
// by /debug/plancache; these feed obs snapshots and /debug/metrics.
var (
	obsPlanCacheHits          = obs.NewCounter("plan_cache_hits_total")
	obsPlanCacheMisses        = obs.NewCounter("plan_cache_misses_total")
	obsPlanCacheEvictions     = obs.NewCounter("plan_cache_evictions_total")
	obsPlanCacheInvalidations = obs.NewCounter("plan_cache_invalidations_total")
	// Navigational joins in compiled plans: how often the cost model picked
	// navigation over scan+merge (engine_nav_probes_total is what they did).
	obsNavLowerings = obs.NewCounter("plan_nav_lowerings_total")
)
