package engine

import "colorfulxml/internal/obs"

// The engine's observability instruments: one set of process-wide counters
// fed from the per-execution Metrics the executor already gathers (the
// ExplainAnalyze plumbing), folded in once per execution so the per-batch hot
// path stays free of atomic operations.
var (
	obsExecs      = obs.NewCounter("engine_execs_total")
	obsExecErrors = obs.NewCounter("engine_exec_errors_total")
	obsRowsOut    = obs.NewCounter("engine_rows_out_total")
	// Batch transfers between operators, and the rows they carried: together
	// they give the average batch fill, the vectorization health metric
	// (rows/batches near BatchSize means amortization is working).
	obsOpBatches = obs.NewCounter("engine_operator_batches_total")
	obsOpRows    = obs.NewCounter("engine_operator_rows_total")
	obsExecNanos = obs.NewHistogram("engine_exec_nanos")

	obsStructJoins  = obs.NewCounter("engine_struct_joins_total")
	obsValueJoins   = obs.NewCounter("engine_value_joins_total")
	obsIDJoins      = obs.NewCounter("engine_id_joins_total")
	obsCrossJoins   = obs.NewCounter("engine_cross_joins_total")
	obsNavProbes    = obs.NewCounter("engine_nav_probes_total")
	obsContentReads = obs.NewCounter("engine_content_reads_total")
	obsPanics       = obs.NewCounter("engine_panics_total")
)

// foldObs publishes one finished execution's accumulated context into the
// registry: a handful of atomic adds per query, not per row.
func foldObs(ctx *Ctx, sw obs.Stopwatch, rows int, err error) {
	obsExecs.Inc()
	obsExecNanos.Observe(sw.ElapsedNanos())
	if err != nil {
		obsExecErrors.Inc()
	}
	obsRowsOut.Add(uint64(rows))
	obsOpBatches.Add(uint64(ctx.totalBatches))
	obsOpRows.Add(uint64(ctx.totalRows))
	addNZ := func(c *obs.Counter, n int) {
		if n > 0 {
			c.Add(uint64(n))
		}
	}
	addNZ(obsStructJoins, ctx.M.StructJoins)
	addNZ(obsValueJoins, ctx.M.ValueJoins)
	addNZ(obsIDJoins, ctx.M.IDJoins)
	addNZ(obsCrossJoins, ctx.M.CrossJoins)
	addNZ(obsNavProbes, ctx.M.NavProbes)
	addNZ(obsContentReads, ctx.M.ContentReads)
}
