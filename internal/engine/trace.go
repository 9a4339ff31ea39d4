package engine

import (
	"context"
	"fmt"

	"colorfulxml/internal/obs"
	"colorfulxml/internal/storage"
)

// TraceExec executes a plan with full per-operator attribution and timing,
// then attaches one child span per operator under parent, mirroring the plan
// tree: an operator's span nests under its parent operator's span, and an
// Exchange's partition subtrees nest under the Exchange span even though
// they ran on worker goroutines (workers carry their own stats contexts,
// merged back when the exchange closes).
//
// Each operator span carries the operator's batches and rows, cumulative
// NextBatch wall time (including children), and its nonzero
// join/materialization/content counters as attributes. TraceExec is the
// expensive, opt-in sibling of ExecContext — the default query path never
// pays per-batch clock reads.
func TraceExec(cctx context.Context, s *storage.Store, plan Op, parent *obs.Span) ([]Row, Metrics, error) {
	ctx := &Ctx{S: s, stats: map[Op]*OpStats{}, timed: true}
	if cctx != nil && cctx.Done() != nil {
		ctx.Cancel = cctx
	}
	sw := obs.Start()
	rows, err := drain(ctx, plan)
	foldObs(ctx, sw, len(rows), err)
	if parent != nil {
		attachOpSpans(parent, plan, ctx.stats)
		parent.SetAttr("batches", ctx.totalBatches)
		parent.SetAttr("rows_transferred", ctx.totalRows)
		parent.SetAttr("peak_materialized", ctx.peak)
	}
	if err != nil {
		return nil, ctx.M, err
	}
	ctx.M.RowsOut = len(rows)
	return rows, ctx.M, nil
}

// attachOpSpans synthesizes the operator span subtree for op under parent
// from the execution's per-operator statistics.
func attachOpSpans(parent *obs.Span, op Op, stats map[Op]*OpStats) {
	st := stats[op]
	if st == nil {
		st = &OpStats{}
	}
	sp := parent.Child(op.String())
	sp.SetAttr("rows", st.Rows)
	sp.SetAttr("batches", st.Batches)
	setNZ := func(key string, v int) {
		if v != 0 {
			sp.SetAttr(key, v)
		}
	}
	setNZ("materialized", st.Materialized)
	setNZ("struct_joins", st.StructJoins)
	setNZ("value_joins", st.ValueJoins)
	setNZ("id_joins", st.IDJoins)
	setNZ("cross_joins", st.CrossJoins)
	setNZ("nav_probes", st.NavProbes)
	setNZ("content_reads", st.ContentReads)
	for _, ch := range op.Children() {
		attachOpSpans(sp, ch, stats)
	}
	sp.SetDurNanos(st.Nanos)
}

// TraceText renders a traced span tree in the indent-per-depth style of
// Explain, for human consumption of /debug/trace output in tests and tools.
func TraceText(s *obs.Span) string {
	var b []byte
	var walk func(sp *obs.Span, depth int)
	walk = func(sp *obs.Span, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, ' ', ' ')
		}
		b = append(b, fmt.Sprintf("%s (%.3fms)\n", sp.Name(), float64(sp.DurNanos())/1e6)...)
		for _, c := range sp.Children() {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return string(b)
}
