package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"colorfulxml/internal/core"
	"colorfulxml/internal/storage"
)

// Operator implementation patterns, shared by everything below:
//
//   - Scans resolve their posting list straight into the output batch, a page
//     of records at a time; the one that reads content per candidate
//     (ContainsScan) polls cancellation per candidate.
//   - Materializing operators (SortStart, TupleOrder, a Dedup over unordered
//     input) buffer at Open and emit with a single bulk appendRows
//     per NextBatch.
//   - Streaming filters pull their input through a batchCursor and copy
//     surviving rows into the output batch.
//   - Joins with fan-out (one input row can emit many output rows) append
//     directly to the output batch while it has room and queue the overflow
//     — copied into the query arena, since batch rows are transient — in a
//     pending list drained first on the next call, preserving emit order.

// ScanTag is an index scan: all structural nodes with a tag in one color, as
// single-column rows in start order. It streams straight off the tag index
// posting list, resolving a batch of structural records per call.
type ScanTag struct {
	Color core.Color
	Tag   string

	refs []uint64
	pos  int
}

// Open implements Op.
func (o *ScanTag) Open(ctx *Ctx) error {
	o.refs = ctx.S.TagRefs(o.Color, o.Tag)
	o.pos = 0
	return nil
}

// NextBatch implements Op: one bulk resolve (the per-batch cancellation check
// in pullBatch suffices — there is no per-row work here).
func (o *ScanTag) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	n, err := out.fillStructs(ctx.S, o.refs[o.pos:], o.Color)
	o.pos += n
	return err
}

// Close implements Op.
func (o *ScanTag) Close(ctx *Ctx) error {
	o.refs = nil
	return nil
}

// Children implements Op.
func (o *ScanTag) Children() []Op { return nil }

func (o *ScanTag) String() string { return fmt.Sprintf("ScanTag{%s}%s", o.Color, o.Tag) }

// EqContent is a content-index lookup: nodes of a tag whose content equals a
// value, streamed off the content index posting list.
type EqContent struct {
	Color core.Color
	Tag   string
	Value string

	refs []uint64
	pos  int
}

// Open implements Op.
func (o *EqContent) Open(ctx *Ctx) error {
	o.refs = ctx.S.ContentRefs(o.Color, o.Tag, o.Value)
	o.pos = 0
	return nil
}

// NextBatch implements Op: a bulk resolve, as in ScanTag.
func (o *EqContent) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	n, err := out.fillStructs(ctx.S, o.refs[o.pos:], o.Color)
	o.pos += n
	return err
}

// Close implements Op.
func (o *EqContent) Close(ctx *Ctx) error {
	o.refs = nil
	return nil
}

// Children implements Op.
func (o *EqContent) Children() []Op { return nil }

func (o *EqContent) String() string {
	return fmt.Sprintf("EqContent{%s}%s=%q", o.Color, o.Tag, o.Value)
}

// ContainsScan scans a tag and keeps nodes whose content satisfies the
// predicate; each candidate costs a content read (no index can serve
// contains()).
type ContainsScan struct {
	Color core.Color
	Tag   string
	Pred  Pred

	refs []uint64
	pos  int
}

// Open implements Op.
func (o *ContainsScan) Open(ctx *Ctx) error {
	o.refs = ctx.S.TagRefs(o.Color, o.Tag)
	o.pos = 0
	return nil
}

// NextBatch implements Op.
func (o *ContainsScan) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for o.pos < len(o.refs) && !out.Full() {
		// A selective predicate can reject arbitrarily many candidates per
		// emitted row, so the scan polls cancellation per candidate.
		if err := ctx.poll(); err != nil {
			return err
		}
		sn, err := ctx.S.StructByRef(o.refs[o.pos], o.Color)
		if err != nil {
			return err
		}
		o.pos++
		ctx.addContentReads(o, 1)
		content, err := ctx.S.ContentOf(sn.Elem)
		if err != nil {
			return err
		}
		ok, err := o.Pred.Eval(content)
		if err != nil {
			return err
		}
		if ok {
			out.appendNode(sn)
		}
	}
	return nil
}

// Close implements Op.
func (o *ContainsScan) Close(ctx *Ctx) error {
	o.refs = nil
	return nil
}

// Children implements Op.
func (o *ContainsScan) Children() []Op { return nil }

func (o *ContainsScan) String() string {
	return fmt.Sprintf("ContainsScan{%s}%s[%s]", o.Color, o.Tag, o.Pred)
}

// Filter keeps rows whose column's content satisfies the predicate.
type Filter struct {
	Input Op
	Col   int
	Pred  Pred

	in batchCursor
}

// Open implements Op.
func (o *Filter) Open(ctx *Ctx) error { return o.in.open(ctx, o.Input) }

// NextBatch implements Op.
func (o *Filter) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		r, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		ctx.addContentReads(o, 1)
		content, err := ctx.S.ContentOf(r[o.Col].Elem)
		if err != nil {
			return err
		}
		keep, err := o.Pred.Eval(content)
		if err != nil {
			return err
		}
		if keep {
			out.AppendRow(r)
		}
	}
	return nil
}

// Close implements Op.
func (o *Filter) Close(ctx *Ctx) error {
	o.in.close(ctx)
	return o.Input.Close(ctx)
}

// Children implements Op.
func (o *Filter) Children() []Op { return []Op{o.Input} }

func (o *Filter) String() string { return fmt.Sprintf("Filter[col %d %s]", o.Col, o.Pred) }

// AttrFilter keeps rows whose column's attribute satisfies the predicate.
type AttrFilter struct {
	Input Op
	Col   int
	Name  string
	Pred  Pred

	in batchCursor
}

// Open implements Op.
func (o *AttrFilter) Open(ctx *Ctx) error { return o.in.open(ctx, o.Input) }

// NextBatch implements Op.
func (o *AttrFilter) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		r, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		ctx.addContentReads(o, 1)
		e, err := ctx.S.Elem(r[o.Col].Elem)
		if err != nil {
			return err
		}
		keep, err := o.Pred.Eval(e.Attr(o.Name))
		if err != nil {
			return err
		}
		if keep {
			out.AppendRow(r)
		}
	}
	return nil
}

// Close implements Op.
func (o *AttrFilter) Close(ctx *Ctx) error {
	o.in.close(ctx)
	return o.Input.Close(ctx)
}

// Children implements Op.
func (o *AttrFilter) Children() []Op { return []Op{o.Input} }

func (o *AttrFilter) String() string {
	return fmt.Sprintf("AttrFilter[col %d @%s %s]", o.Col, o.Name, o.Pred)
}

// Axis is the structural relationship a join tests between an ancestor-side
// and a descendant-side node.
type Axis uint8

// Structural join axes.
const (
	AncestorDescendant Axis = iota
	ParentChild
)

func (a Axis) String() string {
	if a == ParentChild {
		return "parent-child"
	}
	return "ancestor-descendant"
}

// StructJoin joins two subplans structurally: the AncCol column of Anc rows
// must be an ancestor (or parent) of the DescCol column of Desc rows. Output
// rows are anc-row ++ desc-row; for one descendant the ancestors come
// outermost first.
//
// With Merge — the compiler sets it when both inputs arrive in start order of
// their join columns, as index scans do — it is the stack-tree join of
// Al-Khalifa et al., over streams: one pass over both inputs,
// the ancestors still open at the current position on a stack, nothing built,
// output in descendant start order. Without it the ancestor side is the build
// side: it is materialized into a nearest-enclosing interval index (ancIndex)
// and the descendant side streams in whatever order it has, which the output
// keeps.
type StructJoin struct {
	Anc     Op
	Desc    Op
	AncCol  int
	DescCol int
	Axis    Axis
	Merge   bool

	ix   *ancIndex // build side, !Merge
	hits []int     // scratch for ix.containing

	// Merge: the ancestor stream; its next row, pulled and not yet due (nil:
	// none in hand); whether it is exhausted; and the rows of the ancestors
	// open at the current position, flat (width columns each), outermost first.
	ancIn batchCursor
	next  Row
	done  bool
	open  []storage.SNode
	width int

	in      batchCursor
	pending []Row
	held    int
}

// Open implements Op.
func (o *StructJoin) Open(ctx *Ctx) error {
	o.pending = nil
	if o.Merge {
		o.next, o.done, o.open = nil, false, o.open[:0]
		if err := o.ancIn.open(ctx, o.Anc); err != nil {
			return err
		}
		return o.in.open(ctx, o.Desc)
	}
	ancRows, err := gather(ctx, o, o.Anc)
	if err != nil {
		return err
	}
	o.held = len(ancRows)
	o.ix = buildAncIndex(ancRows, o.AncCol)
	return o.in.open(ctx, o.Desc)
}

// NextBatch implements Op.
func (o *StructJoin) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		if len(o.pending) > 0 {
			o.pending = o.pending[out.appendRows(o.pending):]
			continue
		}
		d, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if o.Merge {
			err = o.mergeOne(ctx, out, d)
		} else {
			o.probeOne(ctx, out, d)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// emit appends anc-row ++ d to the output batch, or queues it once the batch
// is full.
func (o *StructJoin) emit(ctx *Ctx, out *Batch, ar, d Row) {
	if !out.Full() && len(o.pending) == 0 {
		out.appendConcat(ar, d)
	} else {
		o.pending = append(o.pending, ctx.concatRow(ar, d))
	}
}

// probeOne joins one descendant row against the ancestor index.
func (o *StructJoin) probeOne(ctx *Ctx, out *Batch, d Row) {
	o.hits = o.ix.containing(o.hits[:0], d[o.DescCol], o.Axis == ParentChild)
	for _, hi := range o.hits {
		ctx.addStructJoins(o, 1)
		for _, ar := range o.ix.rowsOf(hi) {
			o.emit(ctx, out, ar, d)
		}
	}
}

// mergeOne joins one descendant row against the ancestor stream: every
// ancestor row starting before it is brought onto the stack (closing the ones
// that ended first), and what is still open then contains it.
func (o *StructJoin) mergeOne(ctx *Ctx, out *Batch, d Row) error {
	dn := d[o.DescCol]
	for !o.done {
		if o.next == nil {
			a, ok, err := o.ancIn.pull(ctx)
			if err != nil {
				return err
			}
			if !ok {
				o.done = true
				break
			}
			o.next, o.width = a, len(a)
		}
		an := o.next[o.AncCol]
		if an.Start >= dn.Start {
			break
		}
		o.closeBefore(an.Start)
		o.open = append(o.open, o.next...)
		o.next = nil
	}
	o.closeBefore(dn.Start)
	var last int64 = -1
	for at := 0; at < len(o.open); at += o.width {
		ar := Row(o.open[at : at+o.width])
		an := ar[o.AncCol]
		if !an.Contains(dn) || (o.Axis == ParentChild && !an.IsParentOf(dn)) {
			continue
		}
		if an.Start != last {
			ctx.addStructJoins(o, 1)
			last = an.Start
		}
		o.emit(ctx, out, ar, d)
	}
	return nil
}

// closeBefore pops the open ancestors that end before start.
func (o *StructJoin) closeBefore(start int64) {
	for n := len(o.open); n > 0 && o.open[n-o.width+o.AncCol].End < start; n = len(o.open) {
		o.open = o.open[:n-o.width]
	}
}

// Close implements Op.
func (o *StructJoin) Close(ctx *Ctx) error {
	ctx.release(o.held)
	o.held = 0
	o.ix = nil
	o.next = nil
	o.pending = nil
	o.in.close(ctx)
	if o.Merge {
		o.ancIn.close(ctx)
	}
	err1 := o.Anc.Close(ctx)
	err2 := o.Desc.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

// Children implements Op.
func (o *StructJoin) Children() []Op { return []Op{o.Anc, o.Desc} }

func (o *StructJoin) String() string {
	axis := o.Axis.String()
	if o.Merge {
		axis = "merge " + axis
	}
	return fmt.Sprintf("StructJoin[%s, anc col %d, desc col %d]", axis, o.AncCol, o.DescCol)
}

// ExistsJoin is a structural semi-join: keep Input rows whose column has a
// descendant (or a child, per Axis) in Probe's column. The probe side is
// materialized as its distinct nodes in start order; Input streams, with one
// decision memoized per distinct input node.
type ExistsJoin struct {
	Input    Op
	Probe    Op
	Col      int
	ProbeCol int
	Axis     Axis

	probeNodes    []storage.SNode // distinct probe nodes, start order
	probeByParent map[int64][]int // ParentChild: probe indexes by ParentStart
	decided       map[int64]bool
	in            batchCursor
	held          int
}

// Open implements Op.
func (o *ExistsJoin) Open(ctx *Ctx) error {
	probeRows, err := gather(ctx, o, o.Probe)
	if err != nil {
		return err
	}
	o.held = len(probeRows)
	o.decided = make(map[int64]bool)
	o.probeNodes = nil
	o.probeByParent = nil
	seen := make(map[int64]bool, len(probeRows))
	for _, r := range probeRows {
		sn := r[o.ProbeCol]
		if !seen[sn.Start] {
			seen[sn.Start] = true
			o.probeNodes = append(o.probeNodes, sn)
		}
	}
	sortByStart(o.probeNodes)
	if o.Axis == ParentChild {
		o.probeByParent = make(map[int64][]int, len(o.probeNodes))
		for i, sn := range o.probeNodes {
			o.probeByParent[sn.ParentStart] = append(o.probeByParent[sn.ParentStart], i)
		}
	}
	return o.in.open(ctx, o.Input)
}

// match decides whether one input node has a structural partner in the probe
// set.
func (o *ExistsJoin) match(sn storage.SNode) bool {
	if o.Axis == ParentChild {
		for _, i := range o.probeByParent[sn.Start] {
			d := o.probeNodes[i]
			if sn.Contains(d) && sn.IsParentOf(d) {
				return true
			}
		}
		return false
	}
	// Ancestor-descendant: any probe node starting inside sn's interval is a
	// descendant (same-color intervals nest or are disjoint).
	i := sort.Search(len(o.probeNodes), func(i int) bool {
		return o.probeNodes[i].Start > sn.Start
	})
	return i < len(o.probeNodes) && sn.Contains(o.probeNodes[i])
}

// NextBatch implements Op.
func (o *ExistsJoin) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		r, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		sn := r[o.Col]
		keep, seen := o.decided[sn.Start]
		if !seen {
			keep = o.match(sn)
			o.decided[sn.Start] = keep
			if keep {
				ctx.addStructJoins(o, 1)
			}
		}
		if keep {
			out.AppendRow(r)
		}
	}
	return nil
}

// Close implements Op.
func (o *ExistsJoin) Close(ctx *Ctx) error {
	ctx.release(o.held)
	o.held = 0
	o.probeNodes = nil
	o.probeByParent = nil
	o.decided = nil
	o.in.close(ctx)
	err1 := o.Input.Close(ctx)
	err2 := o.Probe.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

// Children implements Op.
func (o *ExistsJoin) Children() []Op { return []Op{o.Input, o.Probe} }

func (o *ExistsJoin) String() string {
	return fmt.Sprintf("ExistsJoin[col %d, %s]", o.Col, o.Axis)
}

// CrossColor is the cross-tree join access method (Section 6.2): for each
// row, follow the element back-link of column Col to its structural node in
// color To, appending it as a new column; rows without that color are
// dropped.
type CrossColor struct {
	Input Op
	Col   int
	To    core.Color

	in batchCursor
}

// Open implements Op.
func (o *CrossColor) Open(ctx *Ctx) error { return o.in.open(ctx, o.Input) }

// NextBatch implements Op.
func (o *CrossColor) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		r, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		ctx.addCrossJoins(o, 1)
		sn, ok, err := ctx.S.CrossTree(r[o.Col].Elem, o.To)
		if err != nil {
			return err
		}
		if ok {
			out.appendConcatNode(r, sn)
		}
	}
	return nil
}

// Close implements Op.
func (o *CrossColor) Close(ctx *Ctx) error {
	o.in.close(ctx)
	return o.Input.Close(ctx)
}

// Children implements Op.
func (o *CrossColor) Children() []Op { return []Op{o.Input} }

func (o *CrossColor) String() string {
	return fmt.Sprintf("CrossColor[col %d -> %s]", o.Col, o.To)
}

// Key identifies the value-join key of a column: an attribute value, a
// space-separated IDREFS attribute, or element content.
type Key struct {
	Attr    string // attribute name; empty means content
	Content bool
	Multi   bool // split the value on spaces (IDREFS)
}

func (k Key) String() string {
	switch {
	case k.Content:
		return "content()"
	case k.Multi:
		return "@" + k.Attr + " (idrefs)"
	default:
		return "@" + k.Attr
	}
}

func (k Key) extract(ctx *Ctx, o Op, sn storage.SNode) ([]string, error) {
	ctx.addContentReads(o, 1)
	e, err := ctx.S.Elem(sn.Elem)
	if err != nil {
		return nil, err
	}
	var raw string
	if k.Content {
		raw = e.Content
	} else {
		raw = e.Attr(k.Attr)
	}
	if !k.Multi {
		if raw == "" {
			return nil, nil
		}
		return []string{raw}, nil
	}
	return strings.Fields(raw), nil
}

// ValueJoin hash-joins two subplans on extracted string keys — the shallow
// representation's ID/IDREF join. The right side is the build side; the left
// streams. Output rows are left-row ++ right-row.
type ValueJoin struct {
	Left     Op
	Right    Op
	LeftCol  int
	RightCol int
	LeftKey  Key
	RightKey Key

	ht      map[string][]Row
	in      batchCursor
	pending []Row
	held    int
}

// Open implements Op.
func (o *ValueJoin) Open(ctx *Ctx) error {
	right, err := gather(ctx, o, o.Right)
	if err != nil {
		return err
	}
	o.held = len(right)
	o.ht = make(map[string][]Row, len(right))
	for _, r := range right {
		keys, err := o.RightKey.extract(ctx, o, r[o.RightCol])
		if err != nil {
			return err
		}
		for _, k := range keys {
			o.ht[k] = append(o.ht[k], r)
		}
	}
	o.pending = nil
	return o.in.open(ctx, o.Left)
}

// NextBatch implements Op.
func (o *ValueJoin) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		if len(o.pending) > 0 {
			o.pending = o.pending[out.appendRows(o.pending):]
			continue
		}
		l, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		keys, err := o.LeftKey.extract(ctx, o, l[o.LeftCol])
		if err != nil {
			return err
		}
		for _, k := range keys {
			ctx.addValueJoins(o, 1)
			for _, r := range o.ht[k] {
				if !out.Full() && len(o.pending) == 0 {
					out.appendConcat(l, r)
				} else {
					o.pending = append(o.pending, ctx.concatRow(l, r))
				}
			}
		}
	}
	return nil
}

// Close implements Op.
func (o *ValueJoin) Close(ctx *Ctx) error {
	ctx.release(o.held)
	o.held = 0
	o.ht = nil
	o.pending = nil
	o.in.close(ctx)
	err1 := o.Left.Close(ctx)
	err2 := o.Right.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

// Children implements Op.
func (o *ValueJoin) Children() []Op { return []Op{o.Left, o.Right} }

func (o *ValueJoin) String() string {
	return fmt.Sprintf("ValueJoin[%s = %s]", o.LeftKey, o.RightKey)
}

// IDJoin hash-joins two subplans on element identity — the MCT identity join
// produced by the plan compiler for "$a = $b" comparisons between node
// variables. The right side is the build side; the left streams. Output rows
// are left-row ++ right-row.
type IDJoin struct {
	Left     Op
	Right    Op
	LeftCol  int
	RightCol int

	ht      map[storage.ElemID][]Row
	in      batchCursor
	pending []Row
	held    int
}

// Open implements Op.
func (o *IDJoin) Open(ctx *Ctx) error {
	right, err := gather(ctx, o, o.Right)
	if err != nil {
		return err
	}
	o.held = len(right)
	o.ht = make(map[storage.ElemID][]Row, len(right))
	for _, r := range right {
		id := r[o.RightCol].Elem
		o.ht[id] = append(o.ht[id], r)
	}
	o.pending = nil
	return o.in.open(ctx, o.Left)
}

// NextBatch implements Op.
func (o *IDJoin) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		if len(o.pending) > 0 {
			o.pending = o.pending[out.appendRows(o.pending):]
			continue
		}
		l, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		ctx.addIDJoins(o, 1)
		for _, r := range o.ht[l[o.LeftCol].Elem] {
			if !out.Full() && len(o.pending) == 0 {
				out.appendConcat(l, r)
			} else {
				o.pending = append(o.pending, ctx.concatRow(l, r))
			}
		}
	}
	return nil
}

// Close implements Op.
func (o *IDJoin) Close(ctx *Ctx) error {
	ctx.release(o.held)
	o.held = 0
	o.ht = nil
	o.pending = nil
	o.in.close(ctx)
	err1 := o.Left.Close(ctx)
	err2 := o.Right.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

// Children implements Op.
func (o *IDJoin) Children() []Op { return []Op{o.Left, o.Right} }

func (o *IDJoin) String() string {
	return fmt.Sprintf("IDJoin[left col %d, right col %d]", o.LeftCol, o.RightCol)
}

// NLJoin is the nested-loop join used for inequality predicates on content.
// The right side (and its contents) is the build side; the left streams.
type NLJoin struct {
	Left     Op
	Right    Op
	LeftCol  int
	RightCol int
	// Kind is an inequality predicate kind ("lt", "le", "gt", "ge", "ne").
	Kind    string
	Numeric bool

	right   []Row
	rc      []string
	in      batchCursor
	pending []Row
	held    int
}

// Open implements Op.
func (o *NLJoin) Open(ctx *Ctx) error {
	right, err := gather(ctx, o, o.Right)
	if err != nil {
		return err
	}
	o.held = len(right)
	o.right = right
	o.rc = make([]string, len(right))
	for i, r := range right {
		ctx.addContentReads(o, 1)
		o.rc[i], err = ctx.S.ContentOf(r[o.RightCol].Elem)
		if err != nil {
			return err
		}
	}
	o.pending = nil
	return o.in.open(ctx, o.Left)
}

// NextBatch implements Op.
func (o *NLJoin) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		if len(o.pending) > 0 {
			o.pending = o.pending[out.appendRows(o.pending):]
			continue
		}
		l, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		ctx.addContentReads(o, 1)
		lc, err := ctx.S.ContentOf(l[o.LeftCol].Elem)
		if err != nil {
			return err
		}
		p := Pred{Kind: o.Kind, Numeric: o.Numeric}
		for j, r := range o.right {
			ctx.addValueJoins(o, 1)
			p.Value = o.rc[j]
			match, err := p.Eval(lc)
			if err != nil {
				return err
			}
			if match {
				if !out.Full() && len(o.pending) == 0 {
					out.appendConcat(l, r)
				} else {
					o.pending = append(o.pending, ctx.concatRow(l, r))
				}
			}
		}
	}
	return nil
}

// Close implements Op.
func (o *NLJoin) Close(ctx *Ctx) error {
	ctx.release(o.held)
	o.held = 0
	o.right = nil
	o.rc = nil
	o.pending = nil
	o.in.close(ctx)
	err1 := o.Left.Close(ctx)
	err2 := o.Right.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

// Children implements Op.
func (o *NLJoin) Children() []Op { return []Op{o.Left, o.Right} }

func (o *NLJoin) String() string { return fmt.Sprintf("NLJoin[%s numeric=%v]", o.Kind, o.Numeric) }

// Dedup removes duplicate rows by the element identity of one column — the
// duplicate elimination the deep representation pays after traversing
// replicated data — keeping each element's first row, in input order. No hash
// set either way:
//
// With Ordered — the compiler sets it when the input arrives in start order
// of Col, where a node's repeats are adjacent — it streams, one comparison
// per row, holding nothing. Otherwise it is a pipeline breaker: the input is
// materialized, its (element, position) pairs sorted to find each element's
// first row, and the survivors emitted in their input order — work and memory
// proportional to the rows seen, whatever the ids are.
type Dedup struct {
	Input   Op
	Col     int
	Ordered bool

	in   batchCursor    // Ordered
	last storage.ElemID // Ordered: the previous row's element, once any
	any  bool

	rows []Row // !Ordered: the survivors
	pos  int
	held int
}

// Open implements Op.
func (o *Dedup) Open(ctx *Ctx) error {
	if o.Ordered {
		o.any = false
		return o.in.open(ctx, o.Input)
	}
	rows, err := gather(ctx, o, o.Input)
	if err != nil {
		return err
	}
	o.held = len(rows)
	type occurrence struct {
		elem storage.ElemID
		at   int
	}
	occ := make([]occurrence, len(rows))
	for i, r := range rows {
		occ[i] = occurrence{r[o.Col].Elem, i}
	}
	slices.SortFunc(occ, func(a, b occurrence) int {
		if c := cmp.Compare(a.elem, b.elem); c != 0 {
			return c
		}
		return a.at - b.at
	})
	for i, oc := range occ {
		if i > 0 && oc.elem == occ[i-1].elem {
			rows[oc.at] = nil
		}
	}
	o.rows = rows[:0]
	for _, r := range rows {
		if r != nil {
			o.rows = append(o.rows, r)
		}
	}
	o.pos = 0
	return nil
}

// NextBatch implements Op.
func (o *Dedup) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	if !o.Ordered {
		o.pos += out.appendRows(o.rows[o.pos:])
		return nil
	}
	for !out.Full() {
		r, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if id := r[o.Col].Elem; !o.any || id != o.last {
			o.last, o.any = id, true
			out.AppendRow(r)
		}
	}
	return nil
}

// Close implements Op.
func (o *Dedup) Close(ctx *Ctx) error {
	ctx.release(o.held)
	o.held = 0
	o.rows = nil
	if o.Ordered {
		o.in.close(ctx)
	}
	return o.Input.Close(ctx)
}

// Children implements Op.
func (o *Dedup) Children() []Op { return []Op{o.Input} }

func (o *Dedup) String() string {
	if o.Ordered {
		return fmt.Sprintf("Dedup[col %d, ordered]", o.Col)
	}
	return fmt.Sprintf("Dedup[col %d]", o.Col)
}

// Project keeps a subset of columns.
type Project struct {
	Input Op
	Cols  []int

	in batchCursor
}

// Open implements Op.
func (o *Project) Open(ctx *Ctx) error { return o.in.open(ctx, o.Input) }

// NextBatch implements Op.
func (o *Project) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		r, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		slot := out.appendSlot(len(o.Cols))
		for j, c := range o.Cols {
			slot[j] = r[c]
		}
	}
	return nil
}

// Close implements Op.
func (o *Project) Close(ctx *Ctx) error {
	o.in.close(ctx)
	return o.Input.Close(ctx)
}

// Children implements Op.
func (o *Project) Children() []Op { return []Op{o.Input} }

func (o *Project) String() string { return fmt.Sprintf("Project%v", o.Cols) }

// SortStart orders rows by the start position of one column. A full pipeline
// breaker: the input is materialized and sorted at Open.
type SortStart struct {
	Input Op
	Col   int

	rows []Row
	pos  int
	held int
}

// Open implements Op.
func (o *SortStart) Open(ctx *Ctx) error {
	rows, err := gather(ctx, o, o.Input)
	if err != nil {
		return err
	}
	o.held = len(rows)
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i][o.Col].Start < rows[j][o.Col].Start
	})
	o.rows = rows
	o.pos = 0
	return nil
}

// NextBatch implements Op: a bulk emit of the sorted buffer (the per-batch
// cancellation check in pullBatch suffices — there is no per-row work here).
func (o *SortStart) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	o.pos += out.appendRows(o.rows[o.pos:])
	return nil
}

// Close implements Op.
func (o *SortStart) Close(ctx *Ctx) error {
	ctx.release(o.held)
	o.held = 0
	o.rows = nil
	return o.Input.Close(ctx)
}

// Children implements Op.
func (o *SortStart) Children() []Op { return []Op{o.Input} }

func (o *SortStart) String() string { return fmt.Sprintf("SortStart[col %d]", o.Col) }

// TupleOrder puts binding tuples in the order nested for loops produce them —
// by the first column's start position, then the second's, and so on — and
// drops the repeats of a tuple (each column holds nodes of one color, so
// equal starts are equal nodes). A full pipeline breaker like SortStart: the
// input is materialized, sorted and deduplicated at Open.
type TupleOrder struct {
	Input Op

	rows []Row
	pos  int
	held int
}

// Open implements Op.
func (o *TupleOrder) Open(ctx *Ctx) error {
	rows, err := gather(ctx, o, o.Input)
	if err != nil {
		return err
	}
	o.held = len(rows)
	cmp := func(a, b Row) int {
		for c := range a {
			if d := a[c].Start - b[c].Start; d != 0 {
				if d < 0 {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	sort.Slice(rows, func(i, j int) bool { return cmp(rows[i], rows[j]) < 0 })
	o.rows = rows[:0]
	for i, r := range rows {
		if i == 0 || cmp(rows[i-1], r) != 0 {
			o.rows = append(o.rows, r)
		}
	}
	o.pos = 0
	return nil
}

// NextBatch implements Op: a bulk emit of the sorted buffer, as in SortStart.
func (o *TupleOrder) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	o.pos += out.appendRows(o.rows[o.pos:])
	return nil
}

// Close implements Op.
func (o *TupleOrder) Close(ctx *Ctx) error {
	ctx.release(o.held)
	o.held = 0
	o.rows = nil
	return o.Input.Close(ctx)
}

// Children implements Op.
func (o *TupleOrder) Children() []Op { return []Op{o.Input} }

func (o *TupleOrder) String() string { return "TupleOrder" }
