// Package engine is the physical query engine over the Timber-style MCT
// store: a small algebra of composable operators (index scans, content and
// attribute filters, structural joins, cross-tree color transitions, value
// joins, duplicate elimination), an executor with per-query operator
// metrics, and plan rendering.
//
// Operators follow a vectorized Volcano model: a plan is opened once, then
// transfers rows in ~BatchSize blocks through NextBatch until an empty batch
// signals exhaustion, and is closed when done. Virtual dispatch, cancellation
// polling and ExplainAnalyze accounting are paid once per batch instead of
// once per row. Only the explicit pipeline breakers — sorts, duplicate-aware
// probe structures, and join build sides — materialize an input; everything
// else streams, so a plan's peak intermediate footprint is the sum of its
// build sides plus the in-flight batches of its pipeline, not the sum of
// every edge in the tree (ExplainAnalyze reports both).
//
// Plans are produced by the internal/plan compiler, which automates the
// paper's Section 6.2 step ("we manually specified the query plan").
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"colorfulxml/internal/core"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/storage"
)

// Row is one binding tuple: a fixed number of structural-node columns.
type Row []storage.SNode

// Metrics counts operator activity during one execution.
type Metrics struct {
	StructJoins  int // structural join node comparisons emitted
	ValueJoins   int // value join probes
	IDJoins      int // element-identity join probes
	CrossJoins   int // cross-tree (color transition) link traversals
	NavProbes    int // navigational-join input rows navigated from
	RowsOut      int
	ContentReads int
}

// OpStats is the per-operator slice of Metrics gathered by ExplainAnalyze,
// plus the batches and rows the operator produced and the rows it
// materialized (buffered in full) as a pipeline breaker.
type OpStats struct {
	Batches      int
	Rows         int
	Materialized int
	StructJoins  int
	ValueJoins   int
	IDJoins      int
	CrossJoins   int
	NavProbes    int
	ContentReads int
	// Nanos is the cumulative wall time spent inside this operator's
	// NextBatch (including its children's), accumulated only when traced.
	Nanos int64
}

// Ctx carries the store and metrics through an execution.
type Ctx struct {
	S *storage.Store
	M Metrics

	// Cancel, when non-nil, is checked by pullBatch on every batch transfer;
	// a canceled or expired context aborts the execution with its error.
	Cancel context.Context
	// steps counts inner-loop iterations since the last context poll (see
	// poll).
	steps int

	// arena owns every row that outlives a batch boundary (see batch.go).
	arena arena

	// stats is per-operator attribution, non-nil only under ExplainAnalyze
	// and a traced ExecColumn.
	stats map[Op]*OpStats
	// timed makes pullBatch attribute wall time to each operator's OpStats
	// (set only by a traced ExecColumn; the default execution path never
	// reads the clock per batch).
	timed bool
	// totalBatches/totalRows count every batch transfer (and the rows it
	// carried) of the execution, folded into the engine_operator_batches /
	// engine_operator_rows instruments when the execution finishes.
	totalBatches int
	totalRows    int
	// live/peak track the intermediate rows alive at any instant — rows
	// materialized by pipeline breakers plus rows inside in-flight batches —
	// so ExplainAnalyze can report the peak footprint.
	live int
	peak int
}

func (ctx *Ctx) statsFor(o Op) *OpStats {
	if ctx.stats == nil {
		return nil
	}
	st := ctx.stats[o]
	if st == nil {
		st = &OpStats{}
		ctx.stats[o] = st
	}
	return st
}

func (ctx *Ctx) addContentReads(o Op, n int) {
	ctx.M.ContentReads += n
	if st := ctx.statsFor(o); st != nil {
		st.ContentReads += n
	}
}

func (ctx *Ctx) addStructJoins(o Op, n int) {
	ctx.M.StructJoins += n
	if st := ctx.statsFor(o); st != nil {
		st.StructJoins += n
	}
}

func (ctx *Ctx) addValueJoins(o Op, n int) {
	ctx.M.ValueJoins += n
	if st := ctx.statsFor(o); st != nil {
		st.ValueJoins += n
	}
}

func (ctx *Ctx) addIDJoins(o Op, n int) {
	ctx.M.IDJoins += n
	if st := ctx.statsFor(o); st != nil {
		st.IDJoins += n
	}
}

func (ctx *Ctx) addCrossJoins(o Op, n int) {
	ctx.M.CrossJoins += n
	if st := ctx.statsFor(o); st != nil {
		st.CrossJoins += n
	}
}

func (ctx *Ctx) addNavProbes(o Op, n int) {
	ctx.M.NavProbes += n
	if st := ctx.statsFor(o); st != nil {
		st.NavProbes += n
	}
}

// hold records n rows materialized by a pipeline breaker; release undoes it
// when the operator closes.
func (ctx *Ctx) hold(o Op, n int) {
	ctx.live += n
	if ctx.live > ctx.peak {
		ctx.peak = ctx.live
	}
	if st := ctx.statsFor(o); st != nil {
		st.Materialized += n
	}
}

func (ctx *Ctx) release(n int) { ctx.live -= n }

// Op is a physical operator: a vectorized Volcano iterator producing row
// batches.
//
// The contract: Open prepares (or re-prepares — operators are re-openable
// after Close) all iteration state and opens streamed children. NextBatch
// resets out and fills it with up to BatchSize rows; an empty batch after
// return means the operator is exhausted (and it stays exhausted until
// reopened). The rows in out are views into the batch's buffer, valid only
// until the caller's next NextBatch on the same batch — consumers copy what
// they keep (the query arena exists for exactly this). Close releases state
// and closes children, and is idempotent. Children returns the direct inputs
// for plan rendering, so Explain can never silently drop an operator's
// subtree. Clone returns a fresh, unopened operator tree with identical
// configuration, zeroed run state and every child cloned — a compiled plan
// is a prototype, and each execution runs a clone, so one cached plan can
// serve any number of concurrent executions (see clone.go).
type Op interface {
	Open(ctx *Ctx) error
	NextBatch(ctx *Ctx, out *Batch) error
	Close(ctx *Ctx) error
	Children() []Op
	Clone() Op
	String() string
}

// cancelCheckEvery is how many inner-loop iterations pass between polls of
// Ctx.Cancel: frequent enough that a runaway query notices a deadline in
// microseconds, rare enough that the check never shows up in a profile.
const cancelCheckEvery = 64

// poll advances the step counter and, every cancelCheckEvery steps, checks
// Ctx.Cancel, returning its error if the context is done. Batch transfers
// poll unconditionally in pullBatch (once per ~1K rows); operators that loop
// over their own iteration state without pulling batches (ContainsScan
// skipping non-matching candidates) must call poll once per iteration
// themselves, or a canceled query would spin to the end of the scan
// unnoticed.
func (ctx *Ctx) poll() error {
	if ctx.Cancel != nil {
		if ctx.steps++; ctx.steps >= cancelCheckEvery {
			ctx.steps = 0
			if err := ctx.Cancel.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// pullBatch draws one batch from an operator, checking cancellation and
// attributing batches/rows under ExplainAnalyze. All parents (and the
// executor) pull through this helper, so cancellation is observed at every
// level of the plan, not just at the root. It also keeps the in-flight
// accounting: the rows of the previous filling of out are released and the
// new filling is held, so live/peak cover rows traveling inside batches, not
// only rows parked in pipeline breakers.
func pullBatch(ctx *Ctx, o Op, out *Batch) error {
	ctx.release(out.held)
	out.held = 0
	if ctx.Cancel != nil {
		if err := ctx.Cancel.Err(); err != nil {
			return err
		}
	}
	ctx.totalBatches++
	var t0 int64
	if ctx.timed {
		t0 = obs.Nanos()
	}
	err := o.NextBatch(ctx, out)
	var st *OpStats
	if st = ctx.statsFor(o); st != nil && ctx.timed {
		st.Nanos += obs.Nanos() - t0
	}
	if err != nil {
		return err
	}
	n := out.Len()
	ctx.totalRows += n
	if st != nil {
		st.Batches++
		st.Rows += n
	}
	// In-flight rows count toward live/peak (but are not any operator's
	// Materialized — they are not parked, just traveling).
	out.held = n
	ctx.live += n
	if ctx.live > ctx.peak {
		ctx.peak = ctx.live
	}
	return nil
}

// panicErr converts a panic escaping an operator into an error naming the
// plan node, so one poisoned query surfaces as a query error instead of
// taking down the whole process.
func panicErr(op Op, r any) error {
	obsPanics.Inc()
	return fmt.Errorf("engine: panic in plan node %s: %v", op.String(), r)
}

// runBatches opens an operator, pulls it to exhaustion batch by batch —
// handing each non-empty batch to visit — and closes it. A panic anywhere in
// the operator tree (or in visit) is contained here: the executor runs
// against an immutable snapshot, so a failed execution cannot have corrupted
// shared state.
func runBatches(ctx *Ctx, op Op, visit func(b *Batch) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicErr(op, r)
		}
	}()
	if err := op.Open(ctx); err != nil {
		op.Close(ctx)
		return err
	}
	var b Batch
	b.pool = ctx.arena.pool
	for {
		if err := pullBatch(ctx, op, &b); err != nil {
			op.Close(ctx)
			return err
		}
		if b.Len() == 0 {
			break
		}
		if err := visit(&b); err != nil {
			op.Close(ctx)
			return err
		}
	}
	ctx.release(b.held)
	b.held = 0
	err = op.Close(ctx)
	b.free()
	return err
}

// drain runs an operator to exhaustion and returns its rows, copied into the
// query arena (batch rows are transient).
func drain(ctx *Ctx, op Op) (rows []Row, err error) {
	err = runBatches(ctx, op, func(b *Batch) error {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, ctx.copyRow(b.Row(i)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// gather materializes a child operator in full on behalf of a pipeline
// breaker (a join build side or sort buffer), accounting the buffered rows
// to the parent until it closes.
func gather(ctx *Ctx, parent, child Op) ([]Row, error) {
	rows, err := drain(ctx, child)
	if err != nil {
		return nil, err
	}
	ctx.hold(parent, len(rows))
	return rows, nil
}

// Exec runs a plan and returns its rows plus metrics.
func Exec(s *storage.Store, plan Op) ([]Row, Metrics, error) {
	return ExecContext(nil, s, plan)
}

// ExecContext is Exec under a context: the execution aborts with the
// context's error shortly after it is canceled or its deadline passes. A
// nil (or never-canceled) context adds no overhead.
func ExecContext(cctx context.Context, s *storage.Store, plan Op) ([]Row, Metrics, error) {
	ctx := &Ctx{S: s}
	// Background-like contexts can never be canceled; skip the polling.
	if cctx != nil && cctx.Done() != nil {
		ctx.Cancel = cctx
	}
	sw := obs.Start()
	rows, err := drain(ctx, plan)
	foldObs(ctx, sw, len(rows), err)
	if err != nil {
		return nil, ctx.M, err
	}
	ctx.M.RowsOut = len(rows)
	return rows, ctx.M, nil
}

// ExecBatches runs a plan and streams its result batches to visit instead of
// materializing them: the zero-copy consumption path the colorful facade
// maps query results through. The batch passed to visit (always non-empty)
// is only valid for the duration of the call — visit copies what it keeps.
// A non-nil error from visit aborts the execution and is returned.
func ExecBatches(cctx context.Context, s *storage.Store, plan Op, visit func(b *Batch) error) (Metrics, error) {
	return ExecBatchesPooled(cctx, s, nil, plan, visit)
}

// ExecBatchesPooled is ExecBatches drawing execution scratch memory (arena
// chunks, batch buffers) from pool and returning it when the execution
// finishes. Because visit's contract already requires copying anything kept
// out of a batch, and streamed executions hand the caller no arena-backed
// rows, recycling is invisible to correct callers. A nil pool is ExecBatches
// exactly. The materializing entry points (Exec, ExplainAnalyze) return rows
// that live in the arena and must never be pooled.
func ExecBatchesPooled(cctx context.Context, s *storage.Store, pool *MemPool, plan Op, visit func(b *Batch) error) (Metrics, error) {
	return execStreamed(&Ctx{S: s}, cctx, pool, plan, visit)
}

// execStreamed is the streaming executor behind ExecBatchesPooled and
// ExecColumn; ctx arrives with S and any attribution set up.
func execStreamed(ctx *Ctx, cctx context.Context, pool *MemPool, plan Op, visit func(b *Batch) error) (Metrics, error) {
	ctx.arena.pool = pool
	if cctx != nil && cctx.Done() != nil {
		ctx.Cancel = cctx
	}
	sw := obs.Start()
	rows := 0
	err := runBatches(ctx, plan, func(b *Batch) error {
		rows += b.Len()
		return visit(b)
	})
	// Whether the execution succeeded, failed or panicked, the plan is
	// closed and every visited batch is past its validity window — the
	// scratch the arena handed out is dead and safe to recycle.
	ctx.arena.release()
	foldObs(ctx, sw, rows, err)
	if err != nil {
		return ctx.M, err
	}
	ctx.M.RowsOut = rows
	return ctx.M, nil
}

// maxRowsHint bounds the capacity ExecColumn allocates on an estimate.
const maxRowsHint = 64 * BatchSize

// ExecColumn runs a plan and returns one column of its rows as element
// references, in row order: a query's answer, which stays a list of
// references until someone reads values through it. Nothing but the ids
// leaves the execution, so scratch always comes from pool, and so does the
// id buffer when the pool holds one large enough (a caller done with the ids
// returns it by pool.PutColumn). An answer of less than a batch needs exactly
// its rows; a larger one starts at rowsHint — the compiler's cardinality,
// exact for scans and for joins that keep a scanned side whole — so that it
// is not regrown row by row.
//
// span, when non-nil, makes this a traced execution: per-operator batches,
// rows, counters and cumulative NextBatch wall time, attached under span as
// one child span per operator mirroring the plan tree. The untraced path
// never reads the clock per batch.
func ExecColumn(cctx context.Context, s *storage.Store, pool *MemPool, plan Op, col, rowsHint int, span *obs.Span) ([]storage.ElemID, Metrics, error) {
	ctx := &Ctx{S: s}
	if span != nil {
		ctx.stats, ctx.timed = map[Op]*OpStats{}, true
	}
	var ids []storage.ElemID
	m, err := execStreamed(ctx, cctx, pool, plan, func(b *Batch) error {
		if ids == nil {
			size := b.Len()
			if b.Full() {
				size = min(max(size, rowsHint), maxRowsHint)
			}
			ids = pool.column(size)
		}
		for i := 0; i < b.Len(); i++ {
			ids = append(ids, b.Row(i)[col].Elem)
		}
		return nil
	})
	if span != nil {
		attachOpSpans(span, plan, ctx.stats)
		span.SetAttr("batches", ctx.totalBatches)
		span.SetAttr("rows_transferred", ctx.totalRows)
		span.SetAttr("peak_materialized", ctx.peak)
	}
	if err != nil {
		return nil, m, err
	}
	return ids, m, nil
}

// Explain renders a plan tree, one operator per line.
func Explain(plan Op) string {
	var b strings.Builder
	var walk func(op Op, depth int)
	walk = func(op Op, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), op.String())
		for _, ch := range op.Children() {
			walk(ch, depth+1)
		}
	}
	walk(plan, 0)
	return b.String()
}

// Analyzed is the result of ExplainAnalyze: the rows and metrics of a real
// execution plus the annotated plan text and the peak number of intermediate
// rows live at any instant.
type Analyzed struct {
	Rows    []Row
	Metrics Metrics
	// Text is the plan tree with per-operator annotations.
	Text string
	// PeakMaterialized is the maximum number of intermediate rows alive at
	// any point of the execution: rows buffered by pipeline breakers plus
	// rows inside in-flight batches. A fully streaming pipeline therefore
	// reports up to a few BatchSize (its pipeline depth in batches), while
	// breakers add their whole build sides.
	PeakMaterialized int
}

// ExplainAnalyze executes a plan while attributing batches, rows,
// materialization and metric deltas to each operator, and renders the
// annotated tree.
func ExplainAnalyze(s *storage.Store, plan Op) (*Analyzed, error) {
	ctx := &Ctx{S: s, stats: map[Op]*OpStats{}}
	sw := obs.Start()
	rows, err := drain(ctx, plan)
	foldObs(ctx, sw, len(rows), err)
	if err != nil {
		return nil, err
	}
	ctx.M.RowsOut = len(rows)

	var b strings.Builder
	var walk func(op Op, depth int)
	walk = func(op Op, depth int) {
		st := ctx.stats[op]
		if st == nil {
			st = &OpStats{}
		}
		fmt.Fprintf(&b, "%s%s  (rows=%d, batches=%d%s)\n",
			strings.Repeat("  ", depth), op.String(), st.Rows, st.Batches, statExtras(st))
		for _, ch := range op.Children() {
			walk(ch, depth+1)
		}
	}
	walk(plan, 0)
	fmt.Fprintf(&b, "peak live intermediate rows: %d\n", ctx.peak)

	return &Analyzed{
		Rows:             rows,
		Metrics:          ctx.M,
		Text:             b.String(),
		PeakMaterialized: ctx.peak,
	}, nil
}

func statExtras(st *OpStats) string {
	var b strings.Builder
	add := func(name string, v int) {
		if v != 0 {
			fmt.Fprintf(&b, ", %s=%d", name, v)
		}
	}
	add("materialized", st.Materialized)
	add("structJoins", st.StructJoins)
	add("valueJoins", st.ValueJoins)
	add("idJoins", st.IDJoins)
	add("crossJoins", st.CrossJoins)
	add("probes", st.NavProbes)
	add("contentReads", st.ContentReads)
	return b.String()
}

// Pred is a content predicate for Filter operators.
type Pred struct {
	// Kind: "eq", "ne", "contains", "prefix", "lt", "le", "gt", "ge".
	Kind string
	// Value to compare with; numeric kinds atomize both sides.
	Value string
	// Numeric forces numeric comparison for lt/le/gt/ge.
	Numeric bool
}

func (p Pred) String() string { return fmt.Sprintf("%s %q", p.Kind, p.Value) }

// Eval applies the predicate to a content string.
func (p Pred) Eval(content string) (bool, error) {
	switch p.Kind {
	case "eq":
		return content == p.Value, nil
	case "ne":
		return content != p.Value, nil
	case "contains":
		return strings.Contains(content, p.Value), nil
	case "prefix":
		return strings.HasPrefix(content, p.Value), nil
	case "lt", "le", "gt", "ge":
		if p.Numeric {
			a, aok := core.Numeric(content)
			b, bok := core.Numeric(p.Value)
			return aok && bok && cmpFloat(p.Kind, a, b), nil
		}
		return cmpStr(p.Kind, content, p.Value), nil
	default:
		return false, fmt.Errorf("engine: unknown predicate kind %q", p.Kind)
	}
}

func cmpFloat(kind string, a, b float64) bool {
	switch kind {
	case "lt":
		return a < b
	case "le":
		return a <= b
	case "gt":
		return a > b
	default:
		return a >= b
	}
}

func cmpStr(kind, a, b string) bool {
	switch kind {
	case "lt":
		return a < b
	case "le":
		return a <= b
	case "gt":
		return a > b
	default:
		return a >= b
	}
}

// --- shared iterator helpers ---------------------------------------------

// ancIndex is a probe structure over a materialized ancestor-side column:
// the rows in start order of that column (arrival order within one node), the
// position of each distinct node's first row, and the nearest-enclosing chain
// over the distinct nodes (laminar: same-color intervals nest or are
// disjoint, so every node containing a position lies on the chain from the
// rightmost node starting at or before it).
type ancIndex struct {
	rows  []Row
	col   int
	first []int // first[i]: index in rows of distinct node i's first row; one past the end closes it
	encl  []int
}

// buildAncIndex indexes rows, which it reorders in place.
func buildAncIndex(rows []Row, col int) *ancIndex {
	start := func(i int) int64 { return rows[i][col].Start }
	// An index scan arrives sorted; anything else is sorted here.
	if !sort.SliceIsSorted(rows, func(i, j int) bool { return start(i) < start(j) }) {
		sort.SliceStable(rows, func(i, j int) bool { return start(i) < start(j) })
	}
	ix := &ancIndex{rows: rows, col: col}
	for i := range rows {
		if i == 0 || start(i) != start(i-1) {
			ix.first = append(ix.first, i)
		}
	}
	n := len(ix.first)
	ix.first = append(ix.first, len(rows))
	ix.encl = make([]int, n)
	var stack []int
	for i := 0; i < n; i++ {
		nd := ix.node(i)
		for len(stack) > 0 && ix.node(stack[len(stack)-1]).End < nd.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			ix.encl[i] = stack[len(stack)-1]
		} else {
			ix.encl[i] = -1
		}
		stack = append(stack, i)
	}
	return ix
}

// node returns distinct node i; rowsOf the rows that carry it.
func (ix *ancIndex) node(i int) storage.SNode { return ix.rows[ix.first[i]][ix.col] }
func (ix *ancIndex) rowsOf(i int) []Row       { return ix.rows[ix.first[i]:ix.first[i+1]] }

// containing appends to hits the indices of the distinct nodes containing d
// (outermost first), filtered by the axis.
func (ix *ancIndex) containing(hits []int, d storage.SNode, parentChild bool) []int {
	n := len(ix.encl)
	if parentChild {
		// The parent, if present, is the node starting at d.ParentStart.
		i := sort.Search(n, func(i int) bool { return ix.node(i).Start >= d.ParentStart })
		if i < n {
			if p := ix.node(i); p.Start == d.ParentStart && p.IsParentOf(d) && p.Contains(d) {
				hits = append(hits, i)
			}
		}
		return hits
	}
	// Rightmost node starting strictly before d, then up the enclosing chain.
	base := len(hits)
	for i := sort.Search(n, func(i int) bool { return ix.node(i).Start >= d.Start }) - 1; i >= 0; i = ix.encl[i] {
		if ix.node(i).Contains(d) {
			hits = append(hits, i)
		}
	}
	// Reverse to outermost-first, matching the stack-tree join's emit order.
	for l, r := base, len(hits)-1; l < r; l, r = l+1, r-1 {
		hits[l], hits[r] = hits[r], hits[l]
	}
	return hits
}

// sortByStart sorts structural nodes by start position.
func sortByStart(ns []storage.SNode) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].Start < ns[j].Start })
}
