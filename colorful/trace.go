package colorful

import (
	"context"
	"fmt"

	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/plan"
)

// TraceQuery runs a query like QueryContext but returns a trace: a span tree
// covering the query's phases (parse, snapshot, compile, execute,
// map-results; or evaluate on the evaluator route, nested in a commit span on
// the constructor route), with the execute span carrying one child span per
// physical operator — an operator's span nests under its parent operator's.
// A plan-cache hit has neither a parse nor a snapshot nor a compile span
// (the cache is probed before the text is parsed) and carries a "plancache"
// attribute on the root.
//
// Tracing is the expensive sibling of QueryContext (per-pull timing, plan
// tree attribution); use it for debugging and the /debug/trace endpoint,
// not on the hot path. The returned span tree is complete (every span
// ended) even when the query fails; the error is also recorded as a root
// span attribute.
func (d *DB) TraceQuery(ctx context.Context, src string) ([]Item, *obs.Span, error) {
	return d.auto.TraceQuery(ctx, src)
}

// TraceQuery is DB.TraceQuery through this session: the same single
// execution path as Session.QueryContext, with phase spans attached.
func (s *Session) TraceQuery(ctx context.Context, src string) ([]Item, *obs.Span, error) {
	root := obs.NewSpan("query")
	root.SetAttr("query", src)
	if err := s.begin(); err != nil {
		root.SetAttr("error", err.Error())
		root.End()
		return nil, root, err
	}
	defer s.end()
	sw := obs.Start()
	rows, route, err := s.routed(ctx, src, root)
	var out []Item
	if err == nil {
		out, err = rows.itemsOnce()
	}
	root.SetAttr("rows", len(out))
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()
	s.db.observeQuery(src, sw.ElapsedNanos(), len(out), route, err)
	s.observe(route, err)
	return out, root, err
}

// TraceText renders a query trace as an indented text tree with durations,
// the human-readable form of /debug/trace output.
func TraceText(root *obs.Span) string {
	if root == nil {
		return ""
	}
	return engine.TraceText(root)
}

// traceableQuery reports whether a query may run through TraceQuery on
// behalf of a read-only debug endpoint: constructor queries mutate the
// database and are rejected.
func traceableQuery(src string) error {
	e, err := mcxquery.ParseQuery(src)
	if err != nil {
		return err
	}
	if plan.HasConstructors(e) {
		return fmt.Errorf("colorful: query constructs nodes; tracing via the debug endpoint is limited to read-only queries")
	}
	return nil
}
