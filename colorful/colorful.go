// Package colorful is the public API of the multi-colored trees (MCT)
// system: an embeddable XML database in which nodes may participate in
// several hierarchies ("colors") at once, queried with MCXQuery — XQuery
// with color-annotated path steps — and exchanged as plain XML via the
// optimal serialization of the SIGMOD 2004 paper "Colorful XML: One
// Hierarchy Isn't Enough".
//
// Quick start:
//
//	db := colorful.New("red", "green")
//	genres, _ := db.AddElement(db.Document(), "movie-genres", "red")
//	comedy, _ := db.AddElementText(genres, "movie-genre", "red", "")
//	...
//	res, err := db.Query(`
//	  for $m in document("db")/{red}descendant::movie[contains({red}child::name, "Eve")]
//	  return createColor(black, <m-name>{ $m/{red}child::name }</m-name>)`)
//
// The facade wraps the internal packages: internal/core (data model),
// internal/mcxquery (query language), internal/update (update language) and
// internal/serialize (XML exchange).
package colorful

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/plan"
	"colorfulxml/internal/serialize"
	"colorfulxml/internal/storage"
	"colorfulxml/internal/update"
	"colorfulxml/internal/xmlenc"
)

// Re-exported model types. A Node belongs to one or more colored trees; its
// content and attributes are stored once.
type (
	// Color names one hierarchy of the database.
	Color = core.Color
	// Node is an MCT node (element, text, attribute, ...).
	Node = core.Node
	// NodeID is a node's stable identity.
	NodeID = core.NodeID
)

// DB is an MCT database with attached query and update processors.
//
// DB is safe for concurrent use by multiple goroutines. Queries in the
// compilable subset run lock-free against an immutable snapshot of the
// database; mutations (the DB-level wrappers in this package — Update,
// AddElement, SetText, ...) each run as one durable commit scope behind a
// writer lock. Update publishes the snapshot that reflects it before
// returning; after the other mutators the next query does, taking the same
// lock — either way usually by incremental change-log replay rather than a
// full rebuild (see MaintStats). Mixing DB wrappers
// with direct method calls on the embedded core.Database forfeits that
// safety: the embedded methods take no locks.
type DB struct {
	*core.Database
	ev *mcxquery.Evaluator
	ex *update.Executor

	// coreRef aliases the embedded Database pointer for the lock-free
	// snapshot fast paths: a degraded-mode rollback swaps the core instance
	// under the writer lock, and lock-free readers must observe the swap
	// atomically (see health.go).
	coreRef atomic.Pointer[core.Database]

	// mu guards the core database: mutators and snapshot maintenance hold it
	// exclusively, evaluator runs hold it shared. A compiled query holds no
	// lock at all — plan and result values touch only an immutable snapshot
	// — unless its output is not a leaf of the data (coreItems) or it finds
	// the snapshot stale and maintains it (currentSnapshot).
	mu sync.RWMutex
	// snap is the published store snapshot for lock-free readers.
	snap atomic.Pointer[snapshot]

	incrementalApplies atomic.Uint64
	fullRebuilds       atomic.Uint64
	publishes          atomic.Uint64

	// Session kernel (see session.go): the shared compiled-plan cache, the
	// internal auto-session behind the DB-level query entry points, and the
	// registry of user sessions DB.Close drains.
	planCache  *plan.Cache
	auto       *Session
	sessMu     sync.Mutex
	sessions   map[*Session]struct{}
	sessClosed bool

	// Slow-query log (see obs.go): threshold in nanoseconds, 0 = disabled.
	slow          *obs.SlowLog
	slowThreshold atomic.Int64
	// bindFallbacks is the set of update texts whose evaluator-bound fallback
	// has been logged (see noteBindFallback).
	bindFallbackMu sync.Mutex
	bindFallbacks  map[string]struct{}

	// Durability (nil/zero for in-memory databases; see durable.go). dur and
	// durErr are guarded by mu; durErr is the terminal closed/failed marker.
	dur         *storage.Durable
	durOpts     Options
	durErr      error
	recovery    storage.RecoveryStats
	checkpoints atomic.Uint64

	// Health state machine (see health.go): healthy databases accept
	// mutations; a durability failure rolls the mutation back and degrades
	// to read-only serving until the background probe heals the disk.
	health       atomic.Int32
	causeMu      sync.Mutex
	degradeCause error
	degrades     atomic.Uint64
	heals        atomic.Uint64
	stopCh       chan struct{} // created by Open; closed once by Close
	stopOnce     sync.Once

	// Scrubber bookkeeping (see health.go).
	scrubPasses      atomic.Uint64
	scrubFiles       atomic.Uint64
	scrubBytes       atomic.Uint64
	scrubCorruptions atomic.Uint64
	scrubLastMu      sync.Mutex
	scrubLast        string
}

// New creates an empty database with the given colors. Colors can also be
// added later with AddDatabaseColor, and createColor registers result colors
// automatically.
func New(colors ...Color) *DB {
	return wrap(core.NewDatabase(colors...))
}

func wrap(db *core.Database) *DB {
	d := &DB{
		Database:  db,
		ev:        mcxquery.NewEvaluator(db),
		ex:        update.NewExecutor(db),
		slow:      obs.NewSlowLog(slowLogCapacity),
		planCache: plan.NewCache(0),
		sessions:  map[*Session]struct{}{},

		bindFallbacks: map[string]struct{}{},
	}
	d.coreRef.Store(db)
	d.auto = newSession(d, true)
	return d
}

// Item is one result item: either a node (with the color it was selected
// under) or an atomic value.
type Item struct {
	Node  *Node
	Color Color
	Value string
}

// Query parses and evaluates an MCXQuery expression. Constructor results
// mutate the database (new nodes, new colors), per the paper's semantics.
//
// Constructor-free queries in the compilable subset run through the automatic
// plan compiler (internal/plan) and the streaming engine over an immutable
// indexed snapshot of the database — lock-free, so any number of such
// queries run concurrently with each other and with at most brief contact
// with writers. Only queries the compiler rejects (plan.ErrUnsupported)
// fall back to the reference tree-walking evaluator; genuine execution
// errors surface to the caller.
func (d *DB) Query(src string) ([]Item, error) {
	return d.QueryContext(context.Background(), src)
}

// QueryContext is Query under a context deadline or cancellation: compiled
// executions poll ctx once per operator batch (at most BatchSize rows of
// work between checks) and abort with the context's error; the evaluator
// path honors the context at entry. A canceled read-only query leaves the
// database untouched.
//
// DB-level queries execute through an internal session that is never
// closed, so they remain available after Close (reads stay in memory);
// Session and Stmt (see session.go, stmt.go) expose the same path with
// per-session defaults and prepared plans.
func (d *DB) QueryContext(ctx context.Context, src string) ([]Item, error) {
	return d.auto.QueryContext(ctx, src)
}

// evalItems runs the reference evaluator under a lock the caller holds.
func (d *DB) evalItems(src string) ([]Item, error) {
	seq, err := d.ev.Query(src)
	if err != nil {
		return nil, err
	}
	out := make([]Item, len(seq))
	for i, it := range seq {
		out[i] = Item{Node: it.Node, Color: it.Color, Value: pathexpr.ItemString(it)}
	}
	return out, nil
}

// Where a compiled query's values are read from.
const (
	sourceSnapshot = "snapshot"
	sourceCore     = "core"
)

// valueSource picks the route that turns a compiled plan's element
// references into items, by a property of the data the plan was compiled
// against: when the output tag has no child paths in its color, an item's
// string value is its element's content record, and everything comes from
// the snapshot that produced the references. A non-leaf output (its value is
// the text of a whole subtree) or an attribute projection goes through core.
func valueSource(c *plan.Compiled) string {
	if c.OutAttr == "" && c.OutLeaf {
		return sourceSnapshot
	}
	return sourceCore
}

// coreItems maps element references from the snapshot at generation gen back
// to core nodes under one shared lock. Core answers for that snapshot only
// while it is still at gen: if a commit has moved it on, coreItems maps
// nothing and reports false, and the caller runs the plan again on a current
// snapshot. So the nodes and their values always come from one generation.
func (d *DB) coreItems(ids []storage.ElemID, c *plan.Compiled, gen uint64) ([]Item, bool) {
	color := c.Cols[c.OutCol].Color
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.Database.Generation() != gen {
		return nil, false
	}
	out := make([]Item, 0, len(ids))
	for _, id := range ids {
		n := d.Database.NodeByID(core.NodeID(id))
		if n == nil {
			continue
		}
		if c.OutAttr != "" {
			// The output designator projects an attribute; nodes lacking it
			// contribute no item, matching the path semantics.
			a := n.Attribute(c.OutAttr)
			if a == nil {
				continue
			}
			out = append(out, Item{Node: a, Color: color, Value: a.Value()})
			continue
		}
		out = append(out, Item{Node: n, Color: color,
			Value: pathexpr.ItemString(pathexpr.NodeItem(n, color))})
	}
	obsValuesCore.Add(uint64(len(out)))
	return out, true
}

// Path evaluates a single colored path expression with optional variable
// bindings of nodes.
func (d *DB) Path(src string, vars map[string]*Node) ([]Item, error) {
	e, err := pathexpr.ParseString(src)
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	env := &pathexpr.Env{DB: d.Database, Ext: d.ev.ExtEval()}
	if len(vars) > 0 {
		env.Vars = map[string]pathexpr.Sequence{}
		for k, n := range vars {
			colors := n.Colors()
			var c Color
			if len(colors) > 0 {
				c = colors[0]
			}
			env.Vars[k] = pathexpr.Sequence{pathexpr.NodeItem(n, c)}
		}
	}
	seq, err := pathexpr.Eval(env, e)
	if err != nil {
		return nil, err
	}
	out := make([]Item, len(seq))
	for i, it := range seq {
		out[i] = Item{Node: it.Node, Color: it.Color, Value: pathexpr.ItemString(it)}
	}
	return out, nil
}

// Explain compiles a query with the automatic plan compiler, executes it with
// per-operator instrumentation, and returns the annotated physical plan tree
// (rows and batches per operator, materialization, index and join counters,
// and the peak number of live intermediate rows — a fully streaming pipeline
// reports only its in-flight batches, at most pipeline depth × BatchSize).
// The last line is the verdict on the output: its column, why it is distinct,
// its order — document order (naming the path a FLWOR was folded into) or a
// FLWOR's binding order — and where its values are read from. Queries the
// compiler cannot lower report why they run on the evaluator instead.
func (d *DB) Explain(src string) (string, error) {
	e, err := mcxquery.ParseQuery(src)
	if err != nil {
		return "", err
	}
	if plan.HasConstructors(e) {
		return "", fmt.Errorf("colorful: query constructs nodes and runs on the evaluator; %w", plan.ErrUnsupported)
	}
	sp, err := d.currentSnapshot()
	if err != nil {
		return "", err
	}
	c, err := plan.Compile(e, d.planOptions(sp.st))
	if err != nil {
		return "", err
	}
	an, err := engine.ExplainAnalyze(sp.st, c.Root)
	if err != nil {
		return "", err
	}
	out := c.Cols[c.OutCol]
	dedup := "made distinct by the plan's Dedup"
	if c.Distinct {
		dedup = "distinct by construction (no Dedup)"
	}
	order := "in document order"
	switch {
	case c.Folded != "":
		order += ", FLWOR folded into " + c.Folded
	case c.BindingOrder:
		order = "in binding order"
	}
	return an.Text + fmt.Sprintf("output: col %d {%s}%s, %s, %s; values from %s\n",
		c.OutCol, out.Color, out.Tag, dedup, order, valueSource(c)), nil
}

// UpdateResult reports how many binding tuples matched and how many nodes an
// update touched.
type UpdateResult struct {
	Tuples       int
	NodesTouched int
}

// Update parses and applies an MCT update expression
// (for/where/update{insert,delete,replace,rename}). Updates serialize
// behind the writer lock. The binding clauses run as a compiled plan on the
// store snapshot (an index probe, not a walk over the tree), and the update
// publishes the snapshot that reflects it before it returns: the writer pays
// for maintenance, which costs what the update changed.
func (d *DB) Update(src string) (UpdateResult, error) {
	obsUpdates.Inc()
	u, err := update.Parse(src)
	if err != nil {
		return UpdateResult{}, err
	}
	d.mu.Lock()
	res, unsupported, err := d.updateLocked(u)
	d.mu.Unlock()
	if unsupported != nil {
		d.noteBindFallback(src, unsupported)
	}
	if err != nil {
		return UpdateResult{}, err
	}
	return UpdateResult{Tuples: res.Tuples, NodesTouched: res.NodesTouched}, nil
}

// updateLocked runs one update as one commit scope and one publication; the
// caller holds d.mu exclusively. unsupported is why the binding clauses went
// to the tree-walking evaluator, nil when the compiled plan bound them.
func (d *DB) updateLocked(u *update.Update) (res update.Result, unsupported, err error) {
	// The binding plan runs on the snapshot, so the snapshot has to be at the
	// core's generation first. This comes before the commit scope opens
	// because it drains the change log, and a drain invalidates the scope's
	// mark; what it drains was committed by the mutators that logged it.
	sp, serr := d.refreshHoldingMu()
	err = d.commitLocked(func() error {
		var tuples update.Tuples
		var err error
		if serr == nil {
			tuples, err = d.ex.BindCompiled(u, sp.st, d.planOptions(sp.st))
		} else {
			err = fmt.Errorf("colorful: no current snapshot to bind on (%v): %w", serr, plan.ErrUnsupported)
		}
		if errors.Is(err, plan.ErrUnsupported) {
			unsupported = err
			obsBindEvaluator.Inc()
			tuples, err = d.ex.Bind(u)
		} else {
			obsBindCompiled.Inc()
		}
		if err != nil {
			return err
		}
		res, err = d.ex.ApplyTuples(u, tuples)
		return err
	})
	// Publish what this update changed, under the same exclusive lock: no
	// reader ever finds the snapshot behind a committed update, and the next
	// update finds it current. The published snapshot is the rollback basis
	// and must equal the state at the last drain; it does, because the drain
	// happens here, after the commit. A failed refresh is not a failed
	// update — the mutation is committed and the next reader retries.
	_, _ = d.refreshHoldingMu()
	return res, unsupported, err
}

// WriteXML serializes the database as exchange XML (the paper's Section 5
// format); every element nests in its first (sorted-lowest) color. For
// cost-optimal nesting use internal/serialize.OptSerialize with a schema.
func (d *DB) WriteXML(w io.Writer, indent bool) error {
	d.mu.RLock()
	doc, err := serialize.Serialize(d.Database, nil)
	d.mu.RUnlock()
	if err != nil {
		return err
	}
	opt := xmlenc.WriteOptions{Declaration: true}
	if indent {
		opt.Indent = "  "
	}
	return xmlenc.Write(w, doc, opt)
}

// XMLString is WriteXML to a string.
func (d *DB) XMLString(indent bool) (string, error) {
	d.mu.RLock()
	doc, err := serialize.Serialize(d.Database, nil)
	d.mu.RUnlock()
	if err != nil {
		return "", err
	}
	opt := xmlenc.WriteOptions{Declaration: true}
	if indent {
		opt.Indent = "  "
	}
	return xmlenc.String(doc, opt), nil
}

// UnmarshalXML reconstructs a database from exchange XML produced by
// WriteXML.
func UnmarshalXML(src string) (*DB, error) {
	db, err := serialize.DeserializeString(src)
	if err != nil {
		return nil, err
	}
	return wrap(db), nil
}

// Isomorphic reports whether two databases are structurally identical per
// color (ignoring node identities); the mismatch description is empty when
// they are.
func Isomorphic(a, b *DB) (bool, string) {
	return serialize.Isomorphic(a.Database, b.Database)
}

// Label renders a node's paper-style identifier label (color initials plus
// node number, e.g. "RG012").
func Label(n *Node) string { return n.Label() }

// MustQuery is Query for examples and tests; it panics on error.
func (d *DB) MustQuery(src string) []Item {
	out, err := d.Query(src)
	if err != nil {
		panic(fmt.Sprintf("colorful: query failed: %v", err))
	}
	return out
}
