// Package plan compiles colored path expressions (internal/pathexpr) and
// single-FLWOR MCXQuery queries (internal/mcxquery) into physical plans over
// the streaming engine operators (internal/engine).
//
// The paper hand-specified every physical plan ("we manually specified the
// query plan", Section 6.2); this package automates that step. Compilation
// has two phases:
//
//   - Analyze turns the parsed expression into a small logical IR: one
//     VarPlan (a chain of colored location steps with pushed-down
//     predicates) per for-variable, the value/identity joins of the where
//     clause, and the output designator of the return clause.
//   - Lower walks the IR and emits engine operators, choosing index scans
//     (tag index, content index), structural-join order, cross-tree color
//     transitions and hash-join build sides from cardinality statistics
//     supplied by a Catalog.
//
// The compiler is deliberately partial: constructs it cannot lower (let
// clauses, order by, distinct-values, general expressions) report
// ErrUnsupported so callers can fall back to the reference tree-walking
// evaluator. Everything it does lower is verified against the evaluator by
// internal/workload's differential tests.
package plan

import (
	"errors"
	"fmt"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/storage"
)

// ErrUnsupported marks query constructs outside the compilable subset.
// Callers should fall back to the tree-walking evaluator when they see it.
var ErrUnsupported = errors.New("unsupported by the plan compiler")

func unsupportedf(format string, args ...any) error {
	return fmt.Errorf("plan: %s: %w", fmt.Sprintf(format, args...), ErrUnsupported)
}

// LStep is one resolved location step: its color is concrete (inherited
// colors have been substituted) and the parser's descendant-or-self::node()
// expansion of "//" has been fused back into a single descendant step.
type LStep struct {
	Color core.Color
	// Axis is one of AxisChild, AxisDescendant, AxisParent, AxisAncestor.
	Axis  pathexpr.Axis
	Tag   string
	Preds []LPred
}

func (s LStep) String() string {
	return fmt.Sprintf("{%s}%s::%s", s.Color, s.Axis, s.Tag)
}

// LPred is a pushed-down predicate on a step: a relative path (possibly
// empty, meaning the context node itself), an optional terminal attribute,
// and the comparison to apply to the addressed string value.
type LPred struct {
	Path []LStep
	Attr string
	Pred engine.Pred
}

// VarPlan is the chain of steps binding one for-variable, starting either at
// the document root (Base == "") or at another variable's binding.
type VarPlan struct {
	Name  string
	Base  string
	Steps []LStep
}

// JoinKind classifies a where-clause join.
type JoinKind uint8

// Where-clause join kinds.
const (
	// JoinID is "$a = $b" on nodes: element identity.
	JoinID JoinKind = iota
	// JoinAttr is "$a/@x = $b/@y": attribute value equality.
	JoinAttr
	// JoinPath compares content reached by relative paths, possibly with an
	// inequality ("$a/p < $b/q").
	JoinPath
)

// LJoin is one conjunct of the where clause relating two variables.
type LJoin struct {
	Kind                JoinKind
	LeftVar, RightVar   string
	LeftAttr, RightAttr string
	LeftPath, RightPath []LStep
	// Op is the comparison kind for JoinPath ("eq", "lt", "le", "gt", "ge",
	// "ne"); equality for the other kinds.
	Op      string
	Numeric bool
}

// Output designates the result of the query: a variable, optionally
// navigated further by Path, optionally projected to an attribute.
type Output struct {
	Var  string
	Attr string
	Path []LStep
}

// Logical is the analyzed query.
type Logical struct {
	Vars  []*VarPlan
	Joins []LJoin
	Out   Output
}

// Catalog supplies the cardinality statistics the cost model consumes.
type Catalog interface {
	// TagCard estimates the number of elements with a tag in a color.
	TagCard(c core.Color, tag string) float64
	// EqCard estimates how many of them have exactly the given content.
	EqCard(c core.Color, tag, value string) float64
}

// PathCatalog is an optional Catalog extension: exact cardinalities of
// root-anchored label paths, served by a DataGuide-style path summary
// (storage.PathSummary). A catalog that implements it enables the
// summary-probe access path (engine.PathScan) for fully-resolvable colored
// path expressions.
type PathCatalog interface {
	// PathCount returns the exact number of nodes on paths matching steps in
	// color c, and whether a summary could be consulted.
	PathCount(c core.Color, steps []storage.PathStep) (int, bool)
	// LeafTag reports whether no path of color c continues below an element
	// with this tag: each is a leaf there, and its string value is its own
	// content record.
	LeafTag(c core.Color, tag string) bool
	// NeverNests reports whether no element with this tag lies below another
	// one with the same tag in color c; false when the summary cannot say.
	NeverNests(c core.Color, tag string) bool
}

// StoreCatalog reads exact cardinalities from a loaded store's tag and
// content indexes (index-only, no record reads).
type StoreCatalog struct{ Store *storage.Store }

// TagCard implements Catalog.
func (sc StoreCatalog) TagCard(c core.Color, tag string) float64 {
	return float64(sc.Store.CountTag(c, tag))
}

// EqCard implements Catalog.
func (sc StoreCatalog) EqCard(c core.Color, tag, value string) float64 {
	return float64(sc.Store.CountRun(c, tag, value).N)
}

// PathCount implements PathCatalog against the store's lazily built path
// summary. A summary build failure (torn store) just disables the access
// path; the structural-join lowering remains available.
func (sc StoreCatalog) PathCount(c core.Color, steps []storage.PathStep) (int, bool) {
	ps, err := sc.Store.PathSummary(c)
	if err != nil {
		return 0, false
	}
	return ps.Count(steps), true
}

// LeafTag implements PathCatalog from the per-tag child counts the store
// keeps current under every update (no summary build).
func (sc StoreCatalog) LeafTag(c core.Color, tag string) bool { return sc.Store.LeafTag(c, tag) }

// NeverNests implements PathCatalog from the nesting tags the path summary
// records when it is built.
func (sc StoreCatalog) NeverNests(c core.Color, tag string) bool {
	ps, err := sc.Store.PathSummary(c)
	return err == nil && !ps.Nests(tag)
}

// Options configures compilation.
type Options struct {
	// DefaultColor is used by location steps that have no color and no
	// context color to inherit (single-hierarchy representations).
	DefaultColor core.Color
	// Catalog supplies cardinalities; nil falls back to uniform guesses.
	Catalog Catalog
}

// ColInfo describes one column of the compiled plan's rows.
type ColInfo struct {
	// Var is the variable bound to this column, if any.
	Var string
	// Tag and Color identify the structural nodes the column holds.
	Tag   string
	Color core.Color
}

// Compiled is a lowered plan.
type Compiled struct {
	// Root is the physical plan; its rows' layout is described by Cols.
	Root engine.Op
	Cols []ColInfo
	// VarCols maps each for-variable to its column.
	VarCols map[string]int
	// OutCol is the result column; OutAttr the projected attribute
	// (empty: the element's content / the element itself).
	OutCol  int
	OutAttr string
	// Distinct: lowering proved that no node occurs twice in the output
	// column, so Root carries no final Dedup.
	Distinct bool
	// OutLeaf: the catalog's DataGuide shows no path continuing below the
	// output column's tag in its color, so each result's string value is its
	// own content record and can be read from the store that produced it.
	// Stays true for as long as the plan's stats epoch does: the epoch moves
	// when a tag gains its first element child (storage.StatsEpoch).
	OutLeaf bool
	// BindingOrder: the answer is in a FLWOR's binding order — by binding
	// tuple, then each tuple's nodes in start order — which need not be
	// document order. Otherwise it is in document order.
	BindingOrder bool
	// Folded names the path a one-variable FLWOR was compiled as, because
	// its bindings cannot nest (Lower); empty otherwise. Like OutLeaf, it
	// holds for as long as the plan's stats epoch does, which moves when an
	// insert nests a tag.
	Folded string
	// Rows is the estimated number of result rows: exact for scans and for
	// the joins that keep a scanned side whole, a capacity hint otherwise.
	Rows int
	// Mem recycles execution scratch memory across runs of this plan. A
	// compiled plan is the natural owner of its executions' working set: a
	// cache hit or a prepared statement starts at the buffer sizes the
	// last run grew to, a first run at a few rows' worth. Executors pass it
	// to engine.ExecColumn or ExecBatchesPooled; it is safe for any number
	// of concurrent executions.
	Mem *engine.MemPool

	// lits are the literals of the text the plan was compiled from, and checks the content counts its
	// cost choices read for them: what Compiled.bind holds another text of
	// the same shape to.
	lits   []lit
	checks []cardCheck
}
