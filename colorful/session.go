package colorful

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/storage"
)

// This file is the session kernel: every query of the DB facade — DB.Query,
// DB.QueryContext, DB.TraceQuery, Session.Query*, Stmt.Query* — executes
// through one path, Session.routedParsed, unless the plan cache already
// holds its plan (Session.routed). A session carries prepared statements and
// per-session traffic counters; the DB-level entry points are thin wrappers
// over an internal auto-session that is never closed, so
// the documented "database remains readable in memory after Close" contract
// of durable.go holds while user sessions drain and die with the DB.
//
// The compiled route consults the DB's shared plan cache before parsing:
// the cache keys a text by its shape — its tokens with the literals taken
// out — so a hit costs a scan of the text, skips parse+compile entirely (the
// Table 2 workload — many clients, a small vocabulary of query templates
// with new literals — hits almost always) and is reported as its own query
// route ("cached") so cache effectiveness is visible in the obs registry.
// Cached plans are epoch-guarded (see plan.Cache and storage.StatsEpoch) and
// always executed as clones taking the text's literals as arguments
// (plan.Plan.Instance), so one plan serves any number of concurrent executions.

// ErrSessionClosed is reported when a query or statement executes through a
// session that has been closed — by Session.Close or by DB.Close draining
// all sessions.
var ErrSessionClosed = errors.New("colorful: session is closed")

// Session is a query context over one DB: prepared statements and traffic
// counters. Sessions are safe for concurrent use; Close drains in-flight
// queries and invalidates the session's statements.
type Session struct {
	db *DB

	// mu guards closed and stmts; wg counts in-flight executions so Close
	// can drain them.
	mu     sync.Mutex
	closed bool
	stmts  map[*Stmt]struct{}
	wg     sync.WaitGroup

	// auto marks the DB-internal session behind the DB-level entry points:
	// exempt from DB.Close's drain, keeping the database readable in memory
	// after Close.
	auto bool

	// Per-session counters (see SessionStats).
	nQueries      atomic.Uint64
	nCached       atomic.Uint64
	nCompiled     atomic.Uint64
	nFallbacks    atomic.Uint64
	nConstructors atomic.Uint64
	nErrors       atomic.Uint64
}

// SessionStats is a point-in-time copy of one session's traffic counters,
// by query route.
type SessionStats struct {
	Queries      uint64
	CacheHits    uint64 // compiled route served from the plan cache
	Compiled     uint64 // compiled route with a fresh compile
	Fallbacks    uint64 // evaluator route (unsupported or parse error)
	Constructors uint64 // constructor route (mutating queries)
	Errors       uint64
}

func newSession(d *DB, auto bool) *Session {
	return &Session{db: d, auto: auto, stmts: map[*Stmt]struct{}{}}
}

// Session opens a new session. A session created after DB.Close is born
// closed: every operation on it reports ErrSessionClosed.
func (d *DB) Session() *Session {
	s := newSession(d, false)
	d.sessMu.Lock()
	if d.sessClosed {
		s.closed = true
	} else {
		d.sessions[s] = struct{}{}
	}
	d.sessMu.Unlock()
	return s
}

// Close drains the session's in-flight queries, closes its prepared
// statements (further executions report ErrSessionClosed), and detaches it
// from the DB. Idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// New executions are refused now; wait out the ones already running.
	s.wg.Wait()
	s.mu.Lock()
	stmts := s.stmts
	s.stmts = nil
	s.mu.Unlock()
	for st := range stmts {
		st.markClosed()
	}
	s.db.forgetSession(s)
	return nil
}

// drainSessions closes every open user session, waiting for their in-flight
// queries. Runs without d.mu: draining waits on queries that may need the
// lock themselves.
func (d *DB) drainSessions() {
	d.sessMu.Lock()
	d.sessClosed = true
	sessions := make([]*Session, 0, len(d.sessions))
	for s := range d.sessions {
		sessions = append(sessions, s)
	}
	d.sessMu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}

func (d *DB) forgetSession(s *Session) {
	d.sessMu.Lock()
	delete(d.sessions, s)
	d.sessMu.Unlock()
}

// begin admits one execution into the session; every entry point pairs it
// with end. Refusing here (not deeper) is what makes ErrSessionClosed a
// clean boundary: a closed session never touches the snapshot or the locks.
func (s *Session) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.wg.Add(1)
	return nil
}

func (s *Session) end() { s.wg.Done() }

// Stats returns the session's traffic counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Queries:      s.nQueries.Load(),
		CacheHits:    s.nCached.Load(),
		Compiled:     s.nCompiled.Load(),
		Fallbacks:    s.nFallbacks.Load(),
		Constructors: s.nConstructors.Load(),
		Errors:       s.nErrors.Load(),
	}
}

func (s *Session) observe(route queryRoute, err error) {
	s.nQueries.Add(1)
	switch route {
	case routeCached:
		s.nCached.Add(1)
	case routeCompiled:
		s.nCompiled.Add(1)
	case routeEvaluator:
		s.nFallbacks.Add(1)
	case routeConstructor:
		s.nConstructors.Add(1)
	}
	if err != nil {
		s.nErrors.Add(1)
	}
}

// Query parses and evaluates an MCXQuery expression under this session's
// defaults; see DB.Query for semantics.
func (s *Session) Query(src string) ([]Item, error) {
	return s.QueryContext(context.Background(), src)
}

// QueryContext is Query under a context deadline or cancellation.
func (s *Session) QueryContext(ctx context.Context, src string) ([]Item, error) {
	rows, err := s.query(ctx, src)
	if err != nil {
		return nil, err
	}
	return rows.itemsOnce()
}

// QueryRows is QueryContext answering with the result's Rows, which read
// values from the snapshot only when asked for (see Rows). Every row's node
// is resolved before it returns.
func (s *Session) QueryRows(ctx context.Context, src string) (Rows, error) {
	return resolved(s.query(ctx, src))
}

// query runs one text for QueryContext and QueryRows, inside the session's
// begin/end bracket.
func (s *Session) query(ctx context.Context, src string) (Rows, error) {
	if err := s.begin(); err != nil {
		return Rows{}, err
	}
	defer s.end()
	sw := obs.Start()
	rows, route, err := s.routed(ctx, src, nil)
	s.db.observeQuery(src, sw.ElapsedNanos(), rows.Len(), route, err)
	s.observe(route, err)
	return rows, err
}

// --- the single execution path -------------------------------------------

// childSpan/endSpan/spanAttr make tracing optional along the one execution
// path: a nil parent produces nil children and no-ops, so the untraced hot
// path pays only nil checks.
func childSpan(parent *obs.Span, name string) *obs.Span {
	if parent == nil {
		return nil
	}
	return parent.Child(name)
}

func endSpan(s *obs.Span) {
	if s != nil {
		s.End()
	}
}

func spanAttr(s *obs.Span, key string, value any) {
	if s != nil {
		s.SetAttr(key, value)
	}
}

// routed executes one query text. The caller holds a begin/end bracket;
// root, when non-nil, receives phase spans (TraceQuery).
//
// A text whose plan the shared cache holds at the published snapshot's epoch
// is not parsed: only a text that parsed and had no constructors was ever
// compiled and cached, so the hit already fixes the route. Any other text is
// parsed and takes routedParsed.
func (s *Session) routed(ctx context.Context, src string, root *obs.Span) (Rows, queryRoute, error) {
	sh, lexed := plan.QueryShape(src, s.db.planOptions(nil))
	defer sh.Release()
	if sp, p, ok := s.cachedPlan(sh, lexed, root); ok {
		out, err := s.run(ctx, sp, p, root)
		if errors.Is(err, storage.ErrMixedContent) {
			return s.evaluate(ctx, src, err, root)
		}
		if err != nil {
			return Rows{}, routeCompiled, err // as routedParsed reports it
		}
		return out, routeCached, nil
	}
	ps := childSpan(root, "parse")
	e, perr := mcxquery.ParseQuery(src)
	endSpan(ps)
	return s.routedParsed(ctx, src, sh, e, perr, nil, root)
}

// cachedPlan returns the plan the shared cache holds for the shape at the
// published snapshot's epoch, with the text's arguments, and that snapshot;
// ok false when there is none, the snapshot is stale or the text did not lex
// (its shape is partial). A miss is left for planFor to count, so a text that
// never reaches the compiler stays invisible to the cache.
func (s *Session) cachedPlan(sh plan.Shape, lexed bool, root *obs.Span) (*snapshot, plan.Plan, bool) {
	sp := s.db.publishedSnapshot()
	if sp == nil || !lexed {
		return nil, plan.Plan{}, false
	}
	p, ok := s.db.planCache.HitShape(sh, s.db.planOptions(sp.st), sp.st.StatsEpoch())
	if !ok {
		return nil, plan.Plan{}, false
	}
	spanAttr(root, "plancache", "hit")
	return sp, p, true
}

// routedParsed is the single execution path behind every query entry point.
// sh is the text's shape, whole when the text parsed. st, when non-nil, is the
// prepared statement issuing the query (its held plan joins the cache
// lookup).
func (s *Session) routedParsed(ctx context.Context, src string, sh plan.Shape, e pathexpr.Expr, perr error, st *Stmt, root *obs.Span) (Rows, queryRoute, error) {
	d := s.db
	switch {
	case perr != nil:
		return s.evaluate(ctx, src, nil, root)
	case !plan.HasConstructors(e):
		out, cached, err := s.compiled(ctx, sh, e, st, root)
		switch {
		case errors.Is(err, plan.ErrUnsupported), errors.Is(err, storage.ErrMixedContent):
			return s.evaluate(ctx, src, err, root)
		case err != nil:
			return Rows{}, routeCompiled, err
		case cached:
			return out, routeCached, nil
		}
		return out, routeCompiled, nil
	}
	obsFallbackConstructor.Inc()
	if err := ctx.Err(); err != nil {
		return Rows{}, routeEvaluator, err
	}
	// A constructor query mutates the database: it is one commit scope under
	// the writer lock, and its span covers the evaluation and the WAL append.
	var out []Item
	cs := childSpan(root, "commit")
	err := d.commit(func() (err error) {
		es := childSpan(cs, "evaluate")
		out, err = d.evalItems(src)
		endSpan(es)
		return err
	})
	endSpan(cs)
	return Rows{items: out}, routeConstructor, err
}

// evaluate answers a read-only text on the reference evaluator, under the DB
// lock shared. why is the compiled route's reason for handing it over — the
// compiler rejected the text (plan.ErrUnsupported) or its answer meets mixed
// content (storage.ErrMixedContent) — or nil for a text that did not parse,
// whose error the evaluator reports again with its own diagnostics.
func (s *Session) evaluate(ctx context.Context, src string, why error, root *obs.Span) (Rows, queryRoute, error) {
	switch {
	case why == nil:
		obsFallbackParse.Inc()
	case errors.Is(why, storage.ErrMixedContent):
		obsFallbackMixed.Inc()
	default:
		obsFallbackUnsupported.Inc()
	}
	if why != nil {
		spanAttr(root, "fallback", why.Error())
	}
	if err := ctx.Err(); err != nil {
		return Rows{}, routeEvaluator, err
	}
	d := s.db
	d.mu.RLock()
	defer d.mu.RUnlock()
	es := childSpan(root, "evaluate")
	out, err := d.evalItems(src)
	endSpan(es)
	return Rows{items: out}, routeEvaluator, err
}

// compiled serves a constructor-free query from the compiled route: resolve
// the snapshot, resolve the plan (cache, held statement plan, or fresh
// compile), run it. The bool result reports whether a cached plan served the
// query.
func (s *Session) compiled(ctx context.Context, sh plan.Shape, e pathexpr.Expr, st *Stmt, root *obs.Span) (Rows, bool, error) {
	ss := childSpan(root, "snapshot")
	sp, err := s.db.currentSnapshot()
	endSpan(ss)
	if err != nil {
		return Rows{}, false, err
	}
	p, cached, err := s.planFor(sh, e, sp, st, root)
	if err != nil {
		return Rows{}, false, err
	}
	out, err := s.run(ctx, sp, p, root)
	return out, cached, err
}

// run executes a plan on a snapshot and answers from that snapshot alone,
// taking no lock: a leaf output as Rows that read its values when asked, any
// other output as the items snapshot.items builds. So every answer's nodes
// and values are of the generation that produced its ids.
func (s *Session) run(ctx context.Context, sp *snapshot, p plan.Plan, root *obs.Span) (Rows, error) {
	ids, err := s.execCompiled(ctx, sp, p, root)
	if err != nil {
		return Rows{}, err
	}
	c := p.Compiled
	ms := childSpan(root, "map-results")
	read := valuesRead(c)
	spanAttr(ms, "values", read)
	out := Rows{sp: sp, ids: ids, color: c.Cols[c.OutCol].Color, mem: c.Mem}
	if read != "content" {
		out = Rows{}
		out.items, err = sp.items(ids, c)
		c.Mem.PutColumn(ids)
	}
	obsValues.Add(uint64(out.Len()))
	endSpan(ms)
	return out, err
}

// planFor resolves the physical plan for one execution of a parsed text of
// shape sh (a text that parses always lexes: FuzzShapeLossless). Lookup
// order: the issuing statement's held plan (bound to its literals at this
// epoch, so it is not checked again, and survives cache thrash), shared plan
// cache (epoch- and argument-checked), fresh compile. Only successful
// compiles populate the cache — plan.ErrUnsupported sends the query to the
// evaluator without ever touching cache state, so the fallback route stays
// invisible to cache statistics and can never pin a failure.
func (s *Session) planFor(sh plan.Shape, e pathexpr.Expr, sp *snapshot, st *Stmt, root *obs.Span) (plan.Plan, bool, error) {
	d := s.db
	opt := s.db.planOptions(sp.st)
	epoch := sp.st.StatsEpoch()
	if st != nil {
		if p, ok := st.held(epoch); ok {
			spanAttr(root, "plancache", "stmt")
			return p, true, nil
		}
	}
	if p, ok := d.planCache.GetShape(sh, opt, epoch); ok {
		spanAttr(root, "plancache", "hit")
		if st != nil {
			st.hold(p, epoch)
		}
		return p, true, nil
	}
	cs := childSpan(root, "compile")
	c, err := plan.CompileShape(e, sh, opt)
	endSpan(cs)
	if err != nil {
		return plan.Plan{}, false, err
	}
	d.planCache.PutShape(sh, epoch, c)
	p := plan.Plan{Compiled: c}
	if st != nil {
		st.hold(p, epoch)
	}
	return p, false, nil
}

// execCompiled executes one compiled plan on a snapshot and returns the
// output column as element references, traced (root non-nil) or not by the
// same route. The plan may be shared (cache, statement), so the execution
// always runs a clone of the operator tree — per-run state never touches the
// prototype — and draws its scratch from the plan's memory pool: only ids
// leave the execution. Nothing here takes a DB lock (DESIGN.md §7; the
// lockorder analyzer holds it to that).
func (s *Session) execCompiled(ctx context.Context, sp *snapshot, p plan.Plan, root *obs.Span) ([]storage.ElemID, error) {
	es := childSpan(root, "execute")
	in := p.Instance()
	ids, _, err := engine.ExecColumn(ctx, sp.st, p.Mem, in.Root, p.OutCol, p.Rows, es)
	if err == nil {
		p.Mem.PutInstance(in)
	}
	endSpan(es)
	return ids, err
}

// PlanCacheStats returns the DB's shared plan-cache counters (also served
// by the /debug/plancache endpoint).
func (d *DB) PlanCacheStats() plan.CacheStats { return d.planCache.Stats() }
