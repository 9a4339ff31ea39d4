package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/storage"
)

// Compile analyzes and lowers a parsed query into a physical plan.
func Compile(e pathexpr.Expr, opt Options) (*Compiled, error) {
	lg, err := Analyze(e, opt.DefaultColor)
	if err != nil {
		return nil, err
	}
	return Lower(lg, opt)
}

// CompileQuery parses query text and compiles it.
func CompileQuery(src string, opt Options) (*Compiled, error) {
	e, err := mcxquery.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return Compile(e, opt)
}

// chain is one connected component of the plan under construction: an
// operator tree, the layout of its rows, the variables bound to columns, an
// estimated output cardinality, and the estimated cost of producing it (in
// the cost table's units; only ever compared between alternative lowerings
// of the same thing).
type chain struct {
	op     engine.Op
	cols   []ColInfo
	varCol map[string]int
	card   float64
	cost   float64
	// What lowering knows about the rows without running them. distinct[i]:
	// no node occurs twice in column i — a scan's column, and what a join
	// that cannot fan out derives from one. order: the column whose start
	// positions the rows arrive in non-decreasing order of, -1 for none.
	// Duplicate elimination is dropped or made a one-comparison stream on
	// these, and a structural join merges when both sides are ordered.
	distinct []bool
	order    int
}

// addCol appends a column to the chain's layout and returns its index.
func (ch *chain) addCol(ci ColInfo, distinct bool) int {
	ch.cols = append(ch.cols, ci)
	ch.distinct = append(ch.distinct, distinct)
	return len(ch.cols) - 1
}

// fanOut records that a join may have repeated the chain's rows: no column
// is known distinct any more.
func (ch *chain) fanOut() {
	for i := range ch.distinct {
		ch.distinct[i] = false
	}
}

type lowerer struct {
	cat    Catalog
	chains []*chain
	of     map[string]*chain
}

// Lower emits the physical plan for an analyzed query.
//
// A FLWOR answers in the order of its binding tuples — by the first
// variable's local document order, then the second's, and so on, as
// CompileBindings orders them — and within one tuple in the output column's
// start order; a path answers in document order. A one-variable FLWOR
// `for $i in P return $i/Q` whose bindings cannot nest is the path P/Q
// (fold) and is lowered as one.
func Lower(lg *Logical, opt Options) (*Compiled, error) {
	folded := ""
	if f := fold(lg, opt.Catalog); f != nil {
		lg, folded = f, pathText(f.Vars[0].Steps)
	}
	lw, ch, err := lowerBindings(lg, opt)
	if err != nil {
		return nil, err
	}
	if lw.of[lg.Out.Var] != ch {
		return nil, unsupportedf("returned variable $%s is in an unjoined component", lg.Out.Var)
	}
	col := ch.varCol[lg.Out.Var]
	// One row per binding, in binding order: a one-step return that emits in
	// the chain's order answers in binding order as it stands.
	inOrder := len(lg.Vars) == 1 && len(lg.Out.Path) == 1 && ch.order == col && ch.distinct[col]
	for _, st := range lg.Out.Path {
		if col, err = lw.applyStep(ch, col, st, inOrder); err != nil {
			return nil, err
		}
	}
	// With one variable and no return path, binding order is document order.
	byBinding := len(lg.Vars) > 1 || len(lg.Out.Path) > 0
	cols, varCols := ch.cols, ch.varCol
	if byBinding && !(inOrder && ch.order == ch.varCol[lg.Out.Var]) {
		// Joins, and steps that sort on their new column, emit in their own
		// order: sort the variables' columns and the output column.
		keep := make([]int, 0, len(lg.Vars)+1)
		varCols = make(map[string]int, len(lg.Vars))
		for _, vp := range lg.Vars {
			varCols[vp.Name] = len(keep)
			keep = append(keep, lw.crossTo(ch, ch.varCol[vp.Name], vp.Steps[len(vp.Steps)-1].Color))
		}
		keep = append(keep, col)
		cols = make([]ColInfo, len(keep))
		for i, c := range keep {
			cols[i] = ch.cols[c]
		}
		for name, i := range varCols {
			cols[i].Var = name
		}
		ch.op = &engine.TupleOrder{Input: &engine.Project{Input: ch.op, Cols: keep}}
		distinct := make([]bool, len(keep))
		distinct[len(keep)-1] = ch.distinct[col]
		col, ch.order, ch.distinct = len(keep)-1, -1, distinct
	}
	// Results are the distinct nodes of the output column: binding tuples
	// that select the same node (e.g. via different join partners) collapse.
	// Where the column is distinct by construction there is nothing to
	// collapse; where the rows arrive in its start order, repeats are adjacent.
	root := ch.op
	if !ch.distinct[col] {
		root = &engine.Dedup{Input: ch.op, Col: col, Ordered: ch.order == col}
	}
	obsNavLowerings.Add(uint64(countNavJoins(root)))
	out := cols[col]
	pc, _ := lw.cat.(PathCatalog)
	return &Compiled{
		Root:         root,
		Cols:         cols,
		VarCols:      varCols,
		OutCol:       col,
		OutAttr:      lg.Out.Attr,
		Distinct:     ch.distinct[col],
		OutLeaf:      pc != nil && pc.LeafTag(out.Color, out.Tag),
		BindingOrder: byBinding,
		Folded:       folded,
		Rows:         int(math.Ceil(ch.card)),
		Mem:          &engine.MemPool{},
	}, nil
}

// fold returns `for $i in P return $i/Q` as the bare path P/Q when the two
// are the same answer, nil otherwise. They are when no binding of $i lies
// below another: the bindings' subtrees are then disjoint and follow each
// other in binding order, so the nodes each reaches by forward steps in its
// own colour are in document order when concatenated, and none repeats. The
// catalog's path summary proves it for every binding at once — P's last tag
// never nests in that colour — so without one, or when the tag nests,
// nothing folds. Where-clause filters already sit on P's steps; a join
// between variables does not fold.
func fold(lg *Logical, cat Catalog) *Logical {
	pc, ok := cat.(PathCatalog)
	if !ok || len(lg.Vars) != 1 || len(lg.Joins) != 0 || len(lg.Out.Path) == 0 {
		return nil
	}
	vp := lg.Vars[0]
	last := vp.Steps[len(vp.Steps)-1]
	for _, st := range lg.Out.Path {
		if st.Color != last.Color || (st.Axis != pathexpr.AxisChild && st.Axis != pathexpr.AxisDescendant) {
			return nil
		}
	}
	if !pc.NeverNests(last.Color, last.Tag) {
		return nil
	}
	vp = &VarPlan{Name: "_", Steps: append(append([]LStep{}, vp.Steps...), lg.Out.Path...)}
	return &Logical{Vars: []*VarPlan{vp}, Out: Output{Var: vp.Name, Attr: lg.Out.Attr}}
}

// pathText renders a root-anchored chain for Explain: each step's tag after
// "/" (child), "//" (descendant) or "/axis::", "[…]" where predicates filter
// it, and the colour where it changes.
func pathText(steps []LStep) string {
	var b strings.Builder
	var c core.Color
	for i, st := range steps {
		if i == 0 {
			fmt.Fprintf(&b, "{%s}", st.Color)
		}
		switch st.Axis {
		case pathexpr.AxisChild:
			b.WriteString("/")
		case pathexpr.AxisDescendant:
			b.WriteString("//")
		default:
			fmt.Fprintf(&b, "/%s::", st.Axis)
		}
		if i > 0 && st.Color != c {
			fmt.Fprintf(&b, "{%s}", st.Color)
		}
		c = st.Color
		b.WriteString(st.Tag)
		if len(st.Preds) > 0 {
			b.WriteString("[…]")
		}
	}
	return b.String()
}

// CompileBindings compiles the binding half of a FLWOR — an update
// statement's for and where clauses — into a plan whose rows are the binding
// tuples themselves: one column per for-variable in clause order
// (Compiled.VarCols), each holding the variable's node in the color of the
// variable's last step, every distinct tuple exactly once, in the order the
// evaluator's nested for loops produce them (by the first variable's local
// document order, then the second's, and so on). OutCol is -1: nothing is
// returned, nothing is collapsed onto one column.
func CompileBindings(clauses []mcxquery.Clause, where pathexpr.Expr, opt Options) (*Compiled, error) {
	a := newAnalyzer(opt.DefaultColor)
	if err := a.bindings(clauses, where); err != nil {
		return nil, err
	}
	lg := a.lg
	lw, ch, err := lowerBindings(lg, opt)
	if err != nil {
		return nil, err
	}
	// A predicate that looks into another hierarchy leaves its variable's
	// column in that hierarchy's color; bring each back to its binding color.
	keep := make([]int, len(lg.Vars))
	cols := make([]ColInfo, len(lg.Vars))
	varCols := make(map[string]int, len(lg.Vars))
	for i, vp := range lg.Vars {
		keep[i] = lw.crossTo(ch, ch.varCol[vp.Name], vp.Steps[len(vp.Steps)-1].Color)
		cols[i] = ch.cols[keep[i]]
		cols[i].Var = vp.Name
		varCols[vp.Name] = i
	}
	// Intermediate steps may reach one tuple along several paths, and joins
	// emit in their own order: project to the variables, then sort and drop
	// the repeats.
	root := engine.Op(&engine.TupleOrder{Input: &engine.Project{Input: ch.op, Cols: keep}})
	obsNavLowerings.Add(uint64(countNavJoins(root)))
	return &Compiled{
		Root:    root,
		Cols:    cols,
		VarCols: varCols,
		OutCol:  -1,
		Mem:     &engine.MemPool{},
	}, nil
}

// lowerBindings lowers the variables and joins of an analyzed query into one
// connected chain whose rows carry every variable's column.
func lowerBindings(lg *Logical, opt Options) (*lowerer, *chain, error) {
	lw := &lowerer{cat: opt.Catalog, of: map[string]*chain{}}
	for _, vp := range lg.Vars {
		var ch *chain
		anchor := -1
		lowered := false
		if vp.Base != "" {
			ch = lw.of[vp.Base]
			anchor = ch.varCol[vp.Base]
		} else {
			ch = &chain{varCol: map[string]int{}, order: -1}
			lw.chains = append(lw.chains, ch)
			var err error
			if anchor, lowered, err = lw.trySummary(ch, vp); err != nil {
				return nil, nil, err
			}
		}
		var err error
		if !lowered {
			for _, st := range vp.Steps {
				if anchor, err = lw.applyStep(ch, anchor, st, false); err != nil {
					return nil, nil, err
				}
			}
		}
		ch.varCol[vp.Name] = anchor
		ch.cols[anchor].Var = vp.Name
		lw.of[vp.Name] = ch
	}
	// Hash-equality joins (identity, attribute) connect components cheaply;
	// inequality joins run as nested loops and go last, over the already
	// restricted inputs.
	joins := append([]LJoin{}, lg.Joins...)
	sort.SliceStable(joins, func(i, j int) bool {
		return joins[i].Kind != JoinPath && joins[j].Kind == JoinPath
	})
	for _, j := range joins {
		if err := lw.applyJoin(j); err != nil {
			return nil, nil, err
		}
	}
	if len(lw.chains) != 1 {
		return nil, nil, unsupportedf("where clause leaves %d unjoined query components", len(lw.chains))
	}
	return lw, lw.chains[0], nil
}

// countNavJoins counts the navigational joins of a finished plan (probe
// chains built for a cost comparison and then discarded do not count).
func countNavJoins(op engine.Op) int {
	n := 0
	if _, ok := op.(*engine.NavJoin); ok {
		n = 1
	}
	for _, c := range op.Children() {
		n += countNavJoins(c)
	}
	return n
}

// --- cost model -----------------------------------------------------------

// Batch-aware per-row cost constants (DESIGN.md §11). The batched executor
// amortizes pull overhead across BatchSize rows, so per-row costs reflect
// only the work each row itself causes: an index scan appends a node into a
// batch; a structural join probes the ancestor interval index once per
// input row; a summary probe resolves a structural record and participates
// in one start-order sort. The summary probe also pays a fixed cost to match
// the pattern against the summary's distinct paths (and, on first use per
// color, the amortized build). A navigation — one parent hop, or one seek of
// a tag's posting list — costs costNavProbe scanned rows, calibrated by
// BenchmarkNavCost on the 20 000-item store (DESIGN.md §11 has the
// measurement); the rows it finds are then read like scanned rows. A sorted
// or filtered row is copied or fetched once, like a scanned row.
const (
	costScanRow      = 1.0
	costJoinProbe    = 2.5
	costSummaryRow   = 1.2
	costSummaryProbe = 64.0
	costNavProbe     = 15.0
	costSortRow      = 1.0
	costFilterRow    = 1.0
)

// chainCost estimates the batched structural-join lowering of a root chain:
// every step's tag population is scanned, and every step beyond the first
// probes the ancestor index once per surviving input row (the compiler's
// cardinality model keeps each step's whole tag population flowing, matching
// applyStep's frac computation for root chains).
func (lw *lowerer) chainCost(steps []LStep) float64 {
	card := lw.tagCard(steps[0].Color, steps[0].Tag)
	cost := card * costScanRow
	for _, st := range steps[1:] {
		sc := lw.tagCard(st.Color, st.Tag)
		cost += sc*costScanRow + card*costJoinProbe
		card = sc
	}
	return cost
}

// summaryCost estimates the summary-probe access path: a fixed pattern match
// over the summary plus per-result resolution.
func summaryCost(count float64) float64 {
	return costSummaryProbe + count*costSummaryRow
}

func (lw *lowerer) tagCard(c core.Color, tag string) float64 {
	if lw.cat == nil {
		return 1000
	}
	v := lw.cat.TagCard(c, tag)
	if v < 1 {
		v = 1
	}
	return v
}

func (lw *lowerer) eqSel(c core.Color, tag, value string) float64 {
	if lw.cat == nil {
		return 0.1
	}
	tc := lw.cat.TagCard(c, tag)
	if tc < 1 {
		return 1
	}
	return clamp01(lw.cat.EqCard(c, tag, value) / tc)
}

// predSel estimates the selectivity of one pushed-down predicate on a step.
func (lw *lowerer) predSel(st LStep, p LPred) float64 {
	c, tag := st.Color, st.Tag
	if len(p.Path) > 0 {
		last := p.Path[len(p.Path)-1]
		c, tag = last.Color, last.Tag
	}
	if p.Attr != "" {
		if p.Pred.Kind == "eq" {
			return 0.1
		}
		return 1.0 / 3
	}
	if p.Pred.Kind == "eq" {
		return lw.eqSel(c, tag, p.Pred.Value)
	}
	return 1.0 / 3
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// --- step lowering --------------------------------------------------------

// axisOf maps a navigation axis to the structural-join axis; the direction
// (who is the ancestor) is the caller's choice of Anc/Desc inputs.
func axisOf(a pathexpr.Axis) engine.Axis {
	if a == pathexpr.AxisChild || a == pathexpr.AxisParent {
		return engine.ParentChild
	}
	return engine.AncestorDescendant
}

// access is one way of producing a step's element population as
// single-column rows, distinct and in start order: the operator, its
// estimated cardinality and cost, and the step predicates still to apply.
// The predicate it folds into the scan, if any, would cost a lowering that
// does not use the access path foldFixed + foldRow per row to apply.
type access struct {
	op   engine.Op
	card float64
	cost float64
	rest []LPred

	foldFixed, foldRow float64
}

// stepAccess picks the access path for one step's element population: the
// content index when a predicate on the node's own content is an equality,
// a filtering tag scan for other self-content predicates, a plain tag index
// scan otherwise — or, when a path predicate's probe is far smaller than
// any of those, the probe itself (probeAccess). frac is the fraction of the
// population the step will keep (1 for a root step; for a later step, the
// share whose ancestor survived the chain so far).
func (lw *lowerer) stepAccess(st LStep, frac float64) (access, error) {
	tc := lw.tagCard(st.Color, st.Tag)
	scan := access{
		op:   &engine.ScanTag{Color: st.Color, Tag: st.Tag},
		card: tc, cost: tc * costScanRow, rest: st.Preds,
	}
	for i, p := range st.Preds {
		if len(p.Path) != 0 || p.Attr != "" {
			continue
		}
		scan.rest = append(append([]LPred{}, st.Preds[:i]...), st.Preds[i+1:]...)
		scan.foldRow = costFilterRow
		if p.Pred.Kind == "eq" {
			scan.card = tc * lw.eqSel(st.Color, st.Tag, p.Pred.Value)
			scan.cost = scan.card * costScanRow
			scan.op = &engine.EqContent{Color: st.Color, Tag: st.Tag, Value: p.Pred.Value}
			break
		}
		scan.op = &engine.ContainsScan{Color: st.Color, Tag: st.Tag, Pred: p.Pred}
		scan.card = tc / 3
		scan.cost = tc * (costScanRow + costFilterRow)
		break
	}
	return lw.probeAccess(st, scan, frac)
}

// probeAccess turns a selective path predicate into the step's access path:
// instead of scanning the step's tag and semi-joining every node against the
// predicate's probe chain, it runs the probe chain and navigates from each
// witness up to the step's nodes (tag-checked parent or ancestors), sorted
// back into start order and made distinct — the same single-column rows the scan would have
// left after the predicate, at a cost proportional to the probe. It is
// chosen when navigating from the probe's rows costs less than the scan plus
// semi-joining the share of it that reaches the predicate (the probe chain
// itself runs either way); predicates that navigate another colour keep the
// scan.
func (lw *lowerer) probeAccess(st LStep, scan access, frac float64) (access, error) {
	best, bestCard := -1, 0.0
	for i, p := range st.Preds {
		if len(p.Path) == 0 || p.Path[0].Color != st.Color {
			continue
		}
		last := p.Path[len(p.Path)-1]
		card := lw.tagCard(last.Color, last.Tag) * lw.predSel(st, p)
		if best < 0 || card < bestCard {
			best, bestCard = i, card
		}
	}
	if best < 0 || bestCard*(costNavProbe+costSortRow) >= scan.cost+frac*scan.card*costJoinProbe {
		return scan, nil
	}
	p := st.Preds[best]
	probe, err := lw.predChain(p)
	if err != nil {
		return access{}, err
	}
	axis := engine.NavParent
	if p.Path[0].Axis == pathexpr.AxisDescendant {
		axis = engine.NavAncestor
	}
	var op engine.Op = &engine.NavJoin{Input: probe.op, Col: 0, Axis: axis, Color: st.Color, Tag: st.Tag}
	op = &engine.Project{Input: op, Cols: []int{len(probe.cols)}}
	op = &engine.Dedup{Input: &engine.SortStart{Input: op, Col: 0}, Col: 0, Ordered: true}
	return access{
		op:   op,
		card: math.Min(probe.card, lw.tagCard(st.Color, st.Tag)),
		cost: probe.cost + probe.card*(costNavProbe+costSortRow),
		rest: append(append([]LPred{}, st.Preds[:best]...), st.Preds[best+1:]...),
		// Applied on its own it is a semi-join against the same probe.
		foldFixed: probe.cost, foldRow: costJoinProbe,
	}, nil
}

// trySummary lowers a root-anchored step chain to a path-summary probe
// (engine.PathScan) when the chain is fully resolvable by the DataGuide-style
// summary and the probe costs less than the structural-join chain — the
// batched cost model's materialization choice: a summary probe materializes
// exactly the result set at Open and bulk-emits it, while the join chain
// streams every step's whole tag population through batch pipelines.
//
// Eligible chains have at least two steps (a single step is already a plain
// index scan), stay in one color (the summary is per-tree), use only forward
// child/descendant axes, and carry predicates only on the final step (the
// summary resolves label paths, not values; final-step predicates apply
// after the probe exactly as they would after a scan). The first step's
// pattern is forced to the descendant axis, mirroring the join lowering:
// applyStep's first step scans the whole tag population at any depth.
func (lw *lowerer) trySummary(ch *chain, vp *VarPlan) (int, bool, error) {
	pc, ok := lw.cat.(PathCatalog)
	if !ok || len(vp.Steps) < 2 {
		return 0, false, nil
	}
	c := vp.Steps[0].Color
	steps := make([]storage.PathStep, len(vp.Steps))
	for i, st := range vp.Steps {
		if st.Color != c {
			return 0, false, nil
		}
		if st.Axis != pathexpr.AxisChild && st.Axis != pathexpr.AxisDescendant {
			return 0, false, nil
		}
		if i < len(vp.Steps)-1 && len(st.Preds) > 0 {
			return 0, false, nil
		}
		steps[i] = storage.PathStep{Tag: st.Tag, Desc: i == 0 || st.Axis == pathexpr.AxisDescendant}
	}
	count, ok := pc.PathCount(c, steps)
	if !ok || summaryCost(float64(count)) >= lw.chainCost(vp.Steps) {
		return 0, false, nil
	}
	last := vp.Steps[len(vp.Steps)-1]
	ch.op = &engine.PathScan{Color: c, Steps: steps}
	ch.cols, ch.distinct, ch.order = []ColInfo{{Tag: last.Tag, Color: c}}, []bool{true}, 0
	ch.card = float64(count)
	ch.cost = summaryCost(ch.card)
	anchor := 0
	preds := append([]LPred{}, last.Preds...)
	sort.SliceStable(preds, func(i, j int) bool {
		return lw.predSel(last, preds[i]) < lw.predSel(last, preds[j])
	})
	for _, p := range preds {
		var err error
		if anchor, err = lw.applyPred(ch, anchor, last, p); err != nil {
			return 0, false, err
		}
	}
	return anchor, true, nil
}

// crossTo inserts a cross-tree color transition so column anchor is
// available in color to, returning the column holding that color.
func (lw *lowerer) crossTo(ch *chain, anchor int, to core.Color) int {
	if ch.cols[anchor].Color == to {
		return anchor
	}
	// The same elements seen in another tree: as distinct as they were, in
	// the order they came.
	ch.op = &engine.CrossColor{Input: ch.op, Col: anchor, To: to}
	return ch.addCol(ColInfo{Tag: ch.cols[anchor].Tag, Color: to}, ch.distinct[anchor])
}

// applyStep extends a chain by one location step anchored at column anchor
// (anchor < 0: the step roots the chain) and returns the new step's column.
//
// A non-root step has two lowerings, picked by cost. The merge lowering
// scans the step's population and structurally joins it with the chain — its
// cost is the scan plus one index probe per chain row, whatever the chain's
// size. The navigational lowering (engine.NavJoin) walks from each chain row
// to its parent/ancestors or children/descendants — its cost is one
// navigation per chain row plus the rows found, whatever the population. A
// chain that is small next to the population navigates; a chain of the
// population's order merges (DESIGN.md §6).
//
// inOrder: the chain's rows are one per binding of a FLWOR, in binding order,
// and the answer wants this step's nodes in that order. A forward navigation
// then emits them so and is not sorted, while the merge join would leave a
// sort to the caller; each is costed accordingly.
func (lw *lowerer) applyStep(ch *chain, anchor int, st LStep, inOrder bool) (int, error) {
	var rest []LPred
	if ch.op == nil {
		if st.Axis == pathexpr.AxisParent || st.Axis == pathexpr.AxisAncestor {
			return 0, unsupportedf("path begins with reverse axis %s", st.Axis)
		}
		acc, err := lw.stepAccess(st, 1)
		if err != nil {
			return 0, err
		}
		ch.op, ch.card, ch.cost, rest = acc.op, acc.card, acc.cost, acc.rest
		ch.cols, ch.distinct, ch.order = []ColInfo{{Tag: st.Tag, Color: st.Color}}, []bool{true}, 0
		anchor = 0
	} else {
		anchor = lw.crossTo(ch, anchor, st.Color)
		prev := ch.cols[anchor]
		// A forward step keeps the fraction of the tag's population whose
		// ancestor survived the chain so far; a reverse step at most one
		// node per chain row.
		frac := math.Min(1, ch.card/lw.tagCard(prev.Color, prev.Tag))
		if st.Axis == pathexpr.AxisParent || st.Axis == pathexpr.AxisAncestor {
			frac = math.Min(1, ch.card/lw.tagCard(st.Color, st.Tag))
		}
		acc, err := lw.stepAccess(st, frac)
		if err != nil {
			return 0, err
		}
		rest = acc.rest
		merge := acc.cost + ch.card*costJoinProbe
		switch st.Axis {
		case pathexpr.AxisChild, pathexpr.AxisDescendant:
			// NavJoin emits in chain order; the merge join emits in the new
			// column's start order, which the sort restores.
			found := lw.tagCard(st.Color, st.Tag) * frac
			// A node has one parent: the children of distinct nodes are
			// distinct. Descendants are not — nested nodes share them.
			distinct := ch.distinct[anchor] && st.Axis == pathexpr.AxisChild
			nav := ch.card*costNavProbe + found*(costScanRow+costSortRow+acc.foldRow) + acc.foldFixed
			if inOrder {
				nav -= found * costSortRow
				merge += found * costSortRow
			}
			if nav < merge {
				anchor = lw.navStep(ch, anchor, st, distinct)
				if !inOrder {
					ch.op = &engine.SortStart{Input: ch.op, Col: anchor}
					ch.order = anchor
				}
				ch.card, ch.cost, rest = found, ch.cost+nav, st.Preds
			} else {
				// Both sides in start order of their join columns (an access
				// path always is): one merging pass, no index.
				ch.op = &engine.StructJoin{Anc: ch.op, Desc: acc.op, AncCol: anchor, DescCol: 0, Axis: axisOf(st.Axis), Merge: ch.order == anchor}
				ch.fanOut()
				anchor = ch.addCol(ColInfo{Tag: st.Tag, Color: st.Color}, distinct)
				ch.card, ch.cost = acc.card*frac, ch.cost+merge
				ch.order = anchor
			}
		case pathexpr.AxisParent, pathexpr.AxisAncestor:
			// Both lowerings emit in chain order, ancestors outermost first.
			// Several rows may share a parent, so the new column is never
			// known distinct; the rows themselves keep their order, and —
			// one parent each — repeat only on the ancestor axis.
			if nav := ch.card*(costNavProbe+acc.foldRow) + acc.foldFixed; nav < merge {
				anchor = lw.navStep(ch, anchor, st, false)
				ch.card, ch.cost, rest = math.Min(ch.card, lw.tagCard(st.Color, st.Tag)), ch.cost+nav, st.Preds
				break
			}
			// Reverse step: the new nodes are the ancestors; structural join
			// output is anc columns then desc columns, so existing columns
			// shift right by one.
			ch.op = &engine.StructJoin{Anc: acc.op, Desc: ch.op, AncCol: 0, DescCol: anchor, Axis: axisOf(st.Axis), Merge: ch.order == anchor}
			if st.Axis == pathexpr.AxisAncestor {
				ch.fanOut()
			}
			ch.cols = append([]ColInfo{{Tag: st.Tag, Color: st.Color}}, ch.cols...)
			ch.distinct = append([]bool{false}, ch.distinct...)
			if ch.order >= 0 {
				ch.order++
			}
			for v := range ch.varCol {
				ch.varCol[v]++
			}
			anchor = 0
			ch.card, ch.cost = math.Min(ch.card, acc.card), ch.cost+merge
		default:
			return 0, unsupportedf("axis %s", st.Axis)
		}
	}
	// Most selective predicates first.
	rest = append([]LPred{}, rest...)
	sort.SliceStable(rest, func(i, j int) bool {
		return lw.predSel(st, rest[i]) < lw.predSel(st, rest[j])
	})
	for _, p := range rest {
		var err error
		if anchor, err = lw.applyPred(ch, anchor, st, p); err != nil {
			return 0, err
		}
	}
	return anchor, nil
}

// navStep appends a NavJoin from column col along the step's axis and
// returns the column it adds, known distinct or not as the caller worked
// out. Only the parent axis cannot repeat a row.
func (lw *lowerer) navStep(ch *chain, col int, st LStep, distinct bool) int {
	ch.op = &engine.NavJoin{Input: ch.op, Col: col, Axis: navAxisOf(st.Axis), Color: st.Color, Tag: st.Tag}
	if st.Axis != pathexpr.AxisParent {
		ch.fanOut()
	}
	return ch.addCol(ColInfo{Tag: st.Tag, Color: st.Color}, distinct)
}

func navAxisOf(a pathexpr.Axis) engine.NavAxis {
	switch a {
	case pathexpr.AxisChild:
		return engine.NavChild
	case pathexpr.AxisDescendant:
		return engine.NavDescendant
	case pathexpr.AxisParent:
		return engine.NavParent
	default:
		return engine.NavAncestor
	}
}

// applyPred applies one pushed-down predicate to the chain. A path predicate
// lowers to a structural semijoin (ExistsJoin) against a probe chain built
// over the predicate's relative path — the probe's first-step column is the
// probe key, so nested predicates compile recursively — or, when the chain
// is small next to that probe, to navigation from the chain's own rows
// (navPred). The anchored column may move when a cross-tree transition is
// needed.
func (lw *lowerer) applyPred(ch *chain, anchor int, st LStep, p LPred) (int, error) {
	sel := lw.predSel(st, p)
	switch {
	case len(p.Path) == 0 && p.Attr != "":
		ch.op = &engine.AttrFilter{Input: ch.op, Col: anchor, Name: p.Attr, Pred: p.Pred}
		ch.cost += ch.card * costFilterRow
	case len(p.Path) == 0:
		ch.op = &engine.Filter{Input: ch.op, Col: anchor, Pred: p.Pred}
		ch.cost += ch.card * costFilterRow
	default:
		probe, err := lw.predChain(p)
		if err != nil {
			return 0, err
		}
		// The predicate may navigate another hierarchy: transition first
		// (elements not in that hierarchy cannot satisfy it).
		anchor = lw.crossTo(ch, anchor, p.Path[0].Color)
		exists := probe.cost + ch.card*costJoinProbe
		if nav, ok := lw.navPredCost(ch, anchor, p); ok && nav < exists {
			lw.navPred(ch, anchor, p)
			ch.cost += nav
			break
		}
		ch.op = &engine.ExistsJoin{
			Input: ch.op, Probe: probe.op,
			Col: anchor, ProbeCol: 0,
			Axis: axisOf(p.Path[0].Axis),
		}
		ch.cost += exists
	}
	ch.card *= sel
	return anchor, nil
}

// navPredCost estimates navPred for a path predicate on column col: one
// navigation per row and path step, plus a content fetch per witness found.
// Only plain paths qualify — a nested predicate on a path step keeps the
// probe-chain lowering, which compiles it recursively.
func (lw *lowerer) navPredCost(ch *chain, col int, p LPred) (float64, bool) {
	rows, cost := ch.card, 0.0
	from := ch.cols[col]
	for _, s := range p.Path {
		if len(s.Preds) > 0 {
			return 0, false
		}
		cost += rows * costNavProbe
		rows *= lw.tagCard(s.Color, s.Tag) / lw.tagCard(from.Color, from.Tag)
		from = ColInfo{Tag: s.Tag, Color: s.Color}
	}
	return cost + rows*costFilterRow, true
}

// navPred lowers a path predicate by navigating from the chain's own rows:
// each row fans out along the path to its witnesses, the comparison filters
// them, and Project+Uniq cut the witness columns off and fold a row's
// surviving copies back into one — rows keep their order and never multiply,
// exactly as under ExistsJoin.
func (lw *lowerer) navPred(ch *chain, col int, p LPred) {
	width := len(ch.cols)
	for i, s := range p.Path {
		ch.op = &engine.NavJoin{Input: ch.op, Col: col, Axis: navAxisOf(s.Axis), Color: s.Color, Tag: s.Tag}
		col = width + i
	}
	if p.Attr != "" {
		ch.op = &engine.AttrFilter{Input: ch.op, Col: col, Name: p.Attr, Pred: p.Pred}
	} else {
		ch.op = &engine.Filter{Input: ch.op, Col: col, Pred: p.Pred}
	}
	keep := make([]int, width)
	for i := range keep {
		keep[i] = i
	}
	ch.op = &engine.Uniq{Input: &engine.Project{Input: ch.op, Cols: keep}}
}

// predChain builds the probe plan for a path predicate: the chain of the
// relative path with the terminal comparison folded onto its last step.
// Column 0 remains the first step of the path, which is what the enclosing
// ExistsJoin probes against.
func (lw *lowerer) predChain(p LPred) (*chain, error) {
	steps := append([]LStep{}, p.Path...)
	last := steps[len(steps)-1]
	last.Preds = append(append([]LPred{}, last.Preds...), LPred{Attr: p.Attr, Pred: p.Pred})
	steps[len(steps)-1] = last
	ch := &chain{varCol: map[string]int{}, order: -1}
	anchor := -1
	var err error
	for _, st := range steps {
		if anchor, err = lw.applyStep(ch, anchor, st, false); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// --- join lowering --------------------------------------------------------

// applyJoin merges the two chains a where-clause join relates. The smaller
// side (by estimated cardinality) becomes the hash-join build side; for
// inequality joins it becomes the materialized inner of the nested loop.
func (lw *lowerer) applyJoin(j LJoin) error {
	lch, rch := lw.of[j.LeftVar], lw.of[j.RightVar]
	if lch == rch {
		return unsupportedf("join between already-connected variables $%s and $%s", j.LeftVar, j.RightVar)
	}
	// Extend each side down its comparison path first (inequality joins
	// compare content reached by relative paths).
	lCol, rCol := lch.varCol[j.LeftVar], rch.varCol[j.RightVar]
	var err error
	for _, st := range j.LeftPath {
		if lCol, err = lw.applyStep(lch, lCol, st, false); err != nil {
			return err
		}
	}
	for _, st := range j.RightPath {
		if rCol, err = lw.applyStep(rch, rCol, st, false); err != nil {
			return err
		}
	}
	big, bigCol, small, smallCol, op := lch, lCol, rch, rCol, j.Op
	if big.card < small.card {
		big, bigCol, small, smallCol = small, smallCol, big, bigCol
		op = flipCmp(op)
	}
	var joined engine.Op
	var card float64
	switch j.Kind {
	case JoinID:
		joined = &engine.IDJoin{Left: big.op, Right: small.op, LeftCol: bigCol, RightCol: smallCol}
		card = math.Min(big.card, small.card)
	case JoinAttr:
		lKey, rKey := engine.Key{Attr: j.LeftAttr}, engine.Key{Attr: j.RightAttr}
		if big != lch {
			lKey, rKey = rKey, lKey
		}
		joined = &engine.ValueJoin{
			Left: big.op, Right: small.op,
			LeftCol: bigCol, RightCol: smallCol,
			LeftKey: lKey, RightKey: rKey,
		}
		card = math.Max(big.card, small.card)
	case JoinPath:
		joined = &engine.NLJoin{
			Left: big.op, Right: small.op,
			LeftCol: bigCol, RightCol: smallCol,
			Kind: op, Numeric: j.Numeric,
		}
		card = big.card * small.card / 3
	default:
		return unsupportedf("join kind %d", j.Kind)
	}
	lw.merge(big, small, joined, card)
	return nil
}

// merge fuses the right chain's columns after the left's and repoints its
// variables.
func (lw *lowerer) merge(left, right *chain, op engine.Op, card float64) {
	// A value join pairs rows freely: nothing stays distinct. The left side
	// streams, so its order survives.
	off := len(left.cols)
	left.op = op
	left.fanOut()
	for _, ci := range right.cols {
		left.addCol(ci, false)
	}
	for v, c := range right.varCol {
		left.varCol[v] = c + off
	}
	left.card = card
	left.cost += right.cost
	for v, ch := range lw.of {
		if ch == right {
			lw.of[v] = left
		}
	}
	for i, ch := range lw.chains {
		if ch == right {
			lw.chains = append(lw.chains[:i], lw.chains[i+1:]...)
			break
		}
	}
}
