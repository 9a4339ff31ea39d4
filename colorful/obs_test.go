package colorful

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"testing"
	"time"

	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/plan"
)

const redMoviesQuery = `document("db")/{red}descendant::movie`

// TestTraceQueryPhases: a compiled query's trace carries every phase span,
// and the execute span mirrors the physical plan as operator child spans. A
// plan-cache hit skips the parse.
func TestTraceQueryPhases(t *testing.T) {
	db := wrap(fixtures.NewMovieDB().DB)
	out, root, err := db.TraceQuery(context.Background(), redMoviesQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("traced query returned nothing")
	}
	for _, phase := range []string{"parse", "snapshot", "compile", "execute", "map-results"} {
		if root.Find(phase) == nil {
			t.Errorf("trace lacks a %q span:\n%s", phase, TraceText(root))
		}
	}
	ex := root.Find("execute")
	if ex == nil {
		t.Fatal("no execute span")
	}
	if len(ex.Children()) == 0 {
		t.Fatalf("execute span has no operator children:\n%s", TraceText(root))
	}
	// The root operator span reports the result cardinality.
	var rows string
	for _, a := range spanAttrs(t, ex.Children()[0]) {
		if a.Key == "rows" {
			rows = a.Value
		}
	}
	if rows != fmt.Sprint(len(out)) {
		t.Fatalf("root operator span rows = %q, want %d", rows, len(out))
	}
	// The tree must export as JSON.
	if _, err := json.Marshal(root); err != nil {
		t.Fatal(err)
	}
	// The same text again is a plan-cache hit: the cache is probed before
	// the text is parsed, so there is no parse (nor snapshot, nor compile)
	// span, and the root says why.
	out, root, err = db.TraceQuery(context.Background(), redMoviesQuery)
	if err != nil || len(out) == 0 {
		t.Fatalf("cached traced query: %d items, %v", len(out), err)
	}
	for _, phase := range []string{"parse", "snapshot", "compile"} {
		if root.Find(phase) != nil {
			t.Errorf("cache hit has a %q span:\n%s", phase, TraceText(root))
		}
	}
	for _, phase := range []string{"execute", "map-results"} {
		if root.Find(phase) == nil {
			t.Errorf("cache hit lacks a %q span:\n%s", phase, TraceText(root))
		}
	}
	marked := false
	for _, a := range spanAttrs(t, root) {
		marked = marked || a.Key == "plancache" && a.Value == "hit"
	}
	if !marked {
		t.Errorf("cache hit not marked on the root: %v", spanAttrs(t, root))
	}
}

// spanAttrs reads a span's attributes from its JSON form, the one
// /debug/trace serves.
func spanAttrs(t *testing.T, s *obs.Span) []obs.Attr {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var j struct {
		Attrs []obs.Attr `json:"attrs"`
	}
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	return j.Attrs
}

// TestSlowQueryLogCapture: past the threshold, compiled queries land in the
// slow log with their annotated plan; evaluator-served queries are marked as
// fallbacks with no plan.
func TestSlowQueryLogCapture(t *testing.T) {
	db := wrap(fixtures.NewMovieDB().DB)
	if got := db.SlowQueries(); len(got) != 0 {
		t.Fatalf("fresh DB has %d slow queries", len(got))
	}
	// Threshold zero (default) records nothing.
	if _, err := db.Query(redMoviesQuery); err != nil {
		t.Fatal(err)
	}
	if got := db.SlowQueries(); len(got) != 0 {
		t.Fatalf("disabled slow log captured %d entries", len(got))
	}

	db.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	if _, err := db.Query(redMoviesQuery); err != nil {
		t.Fatal(err)
	}
	evalQuery := `for $m in document("db")/{red}descendant::movie
	 order by $m/{red}child::name return $m/{red}child::name`
	if _, err := db.Query(evalQuery); err != nil {
		t.Fatal(err)
	}
	entries := db.SlowQueries()
	if len(entries) != 2 {
		t.Fatalf("slow log has %d entries, want 2: %+v", len(entries), entries)
	}
	// Newest first: the evaluator query, then the compiled one.
	if !entries[0].Fallback || entries[0].Plan != "" {
		t.Fatalf("evaluator entry not marked fallback/plan-free: %+v", entries[0])
	}
	compiled := entries[1]
	if compiled.Fallback {
		t.Fatalf("compiled entry marked fallback: %+v", compiled)
	}
	if !strings.Contains(compiled.Plan, "rows=") {
		t.Fatalf("compiled entry lacks an annotated plan: %+v", compiled)
	}
	if compiled.Query != redMoviesQuery || compiled.Rows == 0 || compiled.Millis < 0 {
		t.Fatalf("bad compiled slow-log entry: %+v", compiled)
	}
}

// TestUpdateBindRouteIsCounted: an update whose binding clauses compile binds
// on the snapshot and counts under route="compiled"; one the compiler refuses
// (a let clause) binds on the evaluator, counts under route="evaluator", and
// leaves the compiler's reason in the slow log — once per distinct text.
func TestUpdateBindRouteIsCounted(t *testing.T) {
	db := wrap(fixtures.NewMovieDB().DB)
	compiled, evaluator := obsBindCompiled.Value(), obsBindEvaluator.Value()

	if res, err := db.Update(epochUpdate(1)); err != nil || res.Tuples != 3 {
		t.Fatalf("update: %+v, %v", res, err)
	}
	if got := obsBindCompiled.Value() - compiled; got != 1 {
		t.Fatalf("compiled binds moved by %d, want 1", got)
	}
	if got := obsBindEvaluator.Value() - evaluator; got != 0 {
		t.Fatalf("evaluator binds moved by %d, want 0", got)
	}
	if n := len(db.SlowQueries()); n != 0 {
		t.Fatalf("a compiled bind left %d slow-log entries", n)
	}

	letUpdate := `for $a in document("db")/{blue}descendant::actor
	 let $n := $a/{blue}child::name
	 where contains($n, "Marx") update $a { replace $n with "G. Marx" }`
	for i := 0; i < 3; i++ {
		if res, err := db.Update(letUpdate); err != nil || res.Tuples != 1 {
			t.Fatalf("let update: %+v, %v", res, err)
		}
	}
	if got := obsBindEvaluator.Value() - evaluator; got != 3 {
		t.Fatalf("evaluator binds moved by %d, want 3", got)
	}
	entries := db.SlowQueries()
	if len(entries) != 1 {
		t.Fatalf("slow log has %d entries for one distinct text: %+v", len(entries), entries)
	}
	if e := entries[0]; e.Query != letUpdate || !e.Fallback || !strings.Contains(e.Err, "let clause") {
		t.Fatalf("fallback entry does not name the reason: %+v", e)
	}
	// The evaluator-bound update still published its snapshot.
	if out, err := db.Query(`document("db")/{blue}descendant::actor/{blue}child::name[. = "G. Marx"]`); err != nil || len(out) != 1 {
		t.Fatalf("renamed actor: %d rows, %v", len(out), err)
	}
}

// TestFallbackReasonsAreLabeled: the unlabeled fallback total keeps counting
// read-only queries that ran on the evaluator; the labeled series say why.
func TestFallbackReasonsAreLabeled(t *testing.T) {
	db := wrap(fixtures.NewMovieDB().DB)
	total, unsupported := obsFallbacks.Value(), obsFallbackUnsupported.Value()
	parse, ctor := obsFallbackParse.Value(), obsFallbackConstructor.Value()

	if _, err := db.Query(`for $m in document("db")/{red}descendant::movie
	 order by $m/{red}child::name return $m/{red}child::name`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`document("db")/{red}descendant::`); err == nil {
		t.Fatal("malformed query succeeded")
	}
	if _, err := db.Query(`for $m in document("db")/{red}descendant::movie[{red}child::name = "Duck Soup"]
	 return createColor(black, <m>{ $m/{red}child::name }</m>)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(redMoviesQuery); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][2]uint64{
		"total":       {obsFallbacks.Value() - total, 2},
		"unsupported": {obsFallbackUnsupported.Value() - unsupported, 1},
		"parse_error": {obsFallbackParse.Value() - parse, 1},
		"constructor": {obsFallbackConstructor.Value() - ctor, 1},
	} {
		if got[0] != got[1] {
			t.Errorf("%s moved by %d, want %d", name, got[0], got[1])
		}
	}
	// Every reason is one of these; a query that finds the snapshot stale
	// maintains it and stays compiled, so there is no reason for that.
	// mixed_content is TestNonLeafOutputsReadTheSnapshot's.
	var reasons []string
	for name := range obs.Default.Snapshot().Counters {
		if r, ok := strings.CutPrefix(name, `db_evaluator_fallbacks_total{reason="`); ok {
			reasons = append(reasons, strings.TrimSuffix(r, `"}`))
		}
	}
	sort.Strings(reasons)
	if got := strings.Join(reasons, ","); got != "constructor,mixed_content,parse_error,unsupported" {
		t.Errorf("fallback reasons registered: %s", got)
	}
}

// TestFullRebuildReasonsAreLabeled: a full rebuild counts under its reason,
// and the unlabeled family total and MaintStats.FullRebuilds count it too.
// The first snapshot is one; deltas past incrementalMaxDelta, and past what
// core's change log once held, are not: each lands in one commit, which
// publishes it by replay.
func TestFullRebuildReasonsAreLabeled(t *testing.T) {
	db := New("red")
	if _, err := db.AddElement(db.Document(), "list", "red"); err != nil {
		t.Fatal(err)
	}
	reasons := map[string]*obs.Counter{"first": obsRebuildFirst, "replay_refused": obsRebuildReplayRefused}
	want := map[string]uint64{}
	for r, c := range reasons {
		want[r] = c.Value()
	}
	total := obsSnapRebuilds.Value()
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	want["first"]++
	maint := db.MaintStats()
	for _, elems := range []int{incrementalMaxDelta + 1, 1<<14 + 1} {
		bulk, err := db.NewElement("bulk", "red") // built detached, then attached in one commit
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < elems; i++ {
			if _, err := db.AddElement(bulk, "b", "red"); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Append(db.Document(), bulk, "red"); err != nil {
			t.Fatal(err)
		}
		if err := db.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	for r, c := range reasons {
		if c.Value() != want[r] {
			t.Errorf("%s counts %d, want %d", r, c.Value(), want[r])
		}
	}
	if got := obsSnapRebuilds.Value() - total; got != 1 {
		t.Errorf("db_snapshot_full_rebuilds_total moved by %d, want 1", got)
	}
	got := db.MaintStats()
	if got.FullRebuilds != maint.FullRebuilds || got.IncrementalApplies != maint.IncrementalApplies+2 {
		t.Errorf("maintenance went from %+v to %+v, want two incremental applies and no rebuild", maint, got)
	}
}

// TestServeDebugEndToEnd: /debug/metrics reflects a query run just before
// the request, /debug/plancache the scratch its plan kept, /debug/slowlog
// serves the DB's ring, and /debug/trace runs a read-only query (rejecting
// constructors).
func TestServeDebugEndToEnd(t *testing.T) {
	db := wrap(fixtures.NewMovieDB().DB)
	db.SetSlowQueryThreshold(time.Nanosecond)
	srv, err := db.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	before := obs.Default.Snapshot().Counters["db_queries_total"]
	if _, err := db.Query(redMoviesQuery); err != nil {
		t.Fatal(err)
	}

	var snap obs.Snapshot
	getJSON(t, base+"/debug/metrics", &snap)
	if got := snap.Counters["db_queries_total"]; got != before+1 {
		t.Fatalf("db_queries_total = %d over the endpoint, want %d", got, before+1)
	}
	if _, ok := snap.Histograms["db_query_nanos"]; !ok {
		t.Fatal("metrics snapshot lacks db_query_nanos histogram")
	}

	// Text format renders sorted lines.
	text := getBody(t, base+"/debug/metrics?format=text")
	if !strings.Contains(text, "counter db_queries_total ") {
		t.Fatalf("text metrics lack db_queries_total:\n%s", text)
	}

	// The plan cache reports the scratch its plans' pools hold: the query
	// above left its batch buffer there.
	var pc plan.CacheStats
	getJSON(t, base+"/debug/plancache", &pc)
	if pc.Size == 0 || pc.ScratchBytes <= 0 || pc.ScratchBytes != db.PlanCacheStats().ScratchBytes {
		t.Fatalf("plancache endpoint returned %+v", pc)
	}

	var slow []SlowQuery
	getJSON(t, base+"/debug/slowlog", &slow)
	if len(slow) == 0 || slow[0].Query != redMoviesQuery {
		t.Fatalf("slowlog endpoint returned %+v", slow)
	}

	// Tracing a read-only query returns the span tree.
	var span struct {
		Name     string            `json:"name"`
		Children []json.RawMessage `json:"children"`
	}
	getJSON(t, base+"/debug/trace?q="+url.QueryEscape(redMoviesQuery), &span)
	if span.Name != "query" || len(span.Children) == 0 {
		t.Fatalf("trace endpoint returned %+v", span)
	}

	// Constructor queries are rejected before execution.
	resp, err := http.Get(base + "/debug/trace?q=" + url.QueryEscape(
		`createColor(black, <x>{ document("db")/{red}descendant::movie }</x>)`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("constructor trace: status %d, want 400", resp.StatusCode)
	}

	// The pprof index answers.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(getBody(t, url)), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
