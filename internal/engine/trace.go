package engine

import (
	"fmt"

	"colorfulxml/internal/obs"
)

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
