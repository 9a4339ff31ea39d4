package colorful

import (
	"context"
	"errors"
	"sync"

	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/plan"
)

// Stmt is a prepared statement: a query parsed once, holding its own
// reference to the compiled plan so repeated executions skip parse and
// (epoch permitting) compile work even when the shared plan cache has
// evicted the entry. A Stmt is safe for concurrent use by any number of
// goroutines and stays valid until its session (or the DB) closes.
type Stmt struct {
	sess  *Session
	src   string
	shape plan.Shape
	expr  pathexpr.Expr

	// mu guards the held plan and the closed flag. The held plan, bound to
	// the statement's literals, is looked at before the shared cache and
	// reused while the stats epoch still matches.
	mu     sync.Mutex
	closed bool
	plan   plan.Plan
	epoch  uint64
}

// Prepare parses the query and, for the compilable subset, eagerly compiles
// it against the current snapshot (seeding the shared plan cache). Queries
// outside that subset — constructors, evaluator-only forms — prepare
// successfully and route normally at execution; only parse errors fail.
func (s *Session) Prepare(src string) (*Stmt, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	e, err := mcxquery.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	// A text that parses always lexes, so its shape is whole.
	sh, _ := plan.QueryShape(src, s.db.planOptions(nil))
	st := &Stmt{sess: s, src: src, expr: e, shape: sh}
	if !plan.HasConstructors(e) {
		if sp, err := s.db.currentSnapshot(); err == nil {
			if _, _, cerr := s.planFor(st.shape, e, sp, st, nil); cerr != nil && !errors.Is(cerr, plan.ErrUnsupported) {
				return nil, cerr
			}
		}
	}
	if err := s.addStmt(st); err != nil {
		return nil, err
	}
	return st, nil
}

// Prepare prepares a statement on the DB's internal auto-session; it stays
// valid until DB.Close.
func (d *DB) Prepare(src string) (*Stmt, error) { return d.auto.Prepare(src) }

func (s *Session) addStmt(st *Stmt) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.stmts[st] = struct{}{}
	return nil
}

// Query executes the prepared statement; see DB.Query for semantics.
func (st *Stmt) Query() ([]Item, error) {
	return st.QueryContext(context.Background())
}

// QueryContext executes the prepared statement under a context deadline or
// cancellation. After the statement's session (or the DB) has closed it
// reports ErrSessionClosed.
func (st *Stmt) QueryContext(ctx context.Context) ([]Item, error) {
	rows, err := st.query(ctx)
	if err != nil {
		return nil, err
	}
	return rows.itemsOnce()
}

// QueryRows is QueryContext answering with the result's Rows (see
// Session.QueryRows).
func (st *Stmt) QueryRows(ctx context.Context) (Rows, error) {
	return resolved(st.query(ctx))
}

// query executes the statement for QueryContext and QueryRows.
func (st *Stmt) query(ctx context.Context) (Rows, error) {
	s := st.sess
	if err := s.begin(); err != nil {
		return Rows{}, err
	}
	defer s.end()
	st.mu.Lock()
	closed := st.closed
	st.mu.Unlock()
	if closed {
		return Rows{}, ErrSessionClosed
	}
	sw := obs.Start()
	rows, route, err := s.routedParsed(ctx, st.src, st.shape, st.expr, nil, st, nil)
	s.db.observeQuery(st.src, sw.ElapsedNanos(), rows.Len(), route, err)
	s.observe(route, err)
	return rows, err
}

// Close invalidates the statement (further executions report
// ErrSessionClosed) and detaches it from its session. Idempotent.
func (st *Stmt) Close() error {
	st.markClosed()
	s := st.sess
	s.mu.Lock()
	if s.stmts != nil {
		delete(s.stmts, st)
	}
	s.mu.Unlock()
	return nil
}

// Text returns the statement's query text.
func (st *Stmt) Text() string { return st.src }

func (st *Stmt) markClosed() {
	st.mu.Lock()
	st.closed = true
	st.plan = plan.Plan{}
	st.mu.Unlock()
}

// hold remembers the plan that served this statement's latest execution, so
// the statement survives shared-cache eviction without recompiling — but not
// the content run its lookup counted, which would keep that snapshot alive.
func (st *Stmt) hold(p plan.Plan, epoch uint64) {
	st.mu.Lock()
	if !st.closed {
		st.plan, st.epoch = plan.Plan{Compiled: p.Compiled, Args: p.Args}, epoch
	}
	st.mu.Unlock()
}

// held returns the statement's plan if it is still valid at the given epoch.
// Every DB plan compiles with the same options (DB.planOptions: a catalog
// only, which the epoch guards), so the epoch is the whole check.
func (st *Stmt) held(epoch uint64) (plan.Plan, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.plan.Compiled == nil || st.epoch != epoch {
		return plan.Plan{}, false
	}
	return st.plan, true
}
