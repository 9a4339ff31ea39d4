package engine

import (
	"fmt"

	"colorfulxml/internal/core"
	"colorfulxml/internal/storage"
)

// NavAxis is the direction a NavJoin navigates from its input column.
type NavAxis uint8

// Navigation axes.
const (
	NavChild NavAxis = iota
	NavDescendant
	NavParent
	NavAncestor
)

func (a NavAxis) String() string {
	return [...]string{"child", "descendant", "parent", "ancestor"}[a]
}

// NavJoin is the navigational (index nested-loop) structural join: for each
// input row it navigates from column Col along Axis to the nodes carrying
// Tag, and emits the row once per node found, extended by that node as a new
// trailing column. Nothing is scanned or built: a parent or ancestor hop
// probes the start index at the stored parent-start and checks the tag in
// place; a child or descendant step seeks the tag's posting list to the
// node's interval. The work is proportional to the input and the answer,
// never to the tag's population — the plan compiler picks it over
// ScanTag+StructJoin when the input is small next to that population.
//
// Rows come out in input order, each row's nodes in start order (ancestors
// outermost first) — for the reverse axes that is exactly StructJoin's
// order; for the forward axes StructJoin orders by the new column instead,
// which the compiler restores with a SortStart.
type NavJoin struct {
	Input Op
	Col   int
	Axis  NavAxis
	Color core.Color
	Tag   string

	refs    []uint64        // forward axes: the tag's posting list
	found   []storage.SNode // scratch: the nodes of the current input row
	in      batchCursor
	pending []Row
}

// Open implements Op.
func (o *NavJoin) Open(ctx *Ctx) error {
	o.refs = nil
	if o.Axis == NavChild || o.Axis == NavDescendant {
		o.refs = ctx.S.TagRefs(o.Color, o.Tag)
	}
	o.pending = nil
	return o.in.open(ctx, o.Input)
}

// NextBatch implements Op.
func (o *NavJoin) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		if len(o.pending) > 0 {
			o.pending = o.pending[out.appendRows(o.pending):]
			continue
		}
		r, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		// One navigation can read an arbitrarily long run of the posting
		// list, so cancellation is polled per input row, not per batch.
		if err := ctx.poll(); err != nil {
			return err
		}
		ctx.addNavProbes(o, 1)
		switch sn := r[o.Col]; o.Axis {
		case NavChild, NavDescendant:
			o.found, err = ctx.S.AppendWithin(o.found[:0], o.refs, sn, o.Axis == NavChild)
		default:
			o.found, err = ctx.S.AppendAncestors(o.found[:0], sn, o.Tag, o.Axis == NavParent)
		}
		if err != nil {
			return err
		}
		ctx.addStructJoins(o, len(o.found))
		for i := range o.found {
			if !out.Full() && len(o.pending) == 0 {
				out.appendConcatNode(r, o.found[i])
			} else {
				o.pending = append(o.pending, ctx.concatRow(r, Row(o.found[i:i+1])))
			}
		}
	}
	return nil
}

// Close implements Op.
func (o *NavJoin) Close(ctx *Ctx) error {
	o.refs = nil
	o.found = nil
	o.pending = nil
	o.in.close(ctx)
	return o.Input.Close(ctx)
}

// Children implements Op.
func (o *NavJoin) Children() []Op { return []Op{o.Input} }

func (o *NavJoin) String() string {
	return fmt.Sprintf("NavJoin[col %d %s::{%s}%s]", o.Col, o.Axis, o.Color, o.Tag)
}

// Uniq drops a row equal, column for column, to the row before it. It is the
// closing half of a navigational predicate: NavJoin fans an input row out to
// its witnesses, filters keep the witnesses that satisfy the predicate,
// Project cuts the witness columns off again — and the survivors of one
// input row, now identical and still adjacent, collapse back into one, so a
// predicate never multiplies the rows that flow on. (Rows that were already
// identical in the input collapse too; compiled plans are set-valued, so an
// identical binding tuple carries nothing.)
type Uniq struct {
	Input Op

	last []storage.SNode
	any  bool
	in   batchCursor
}

// Open implements Op.
func (o *Uniq) Open(ctx *Ctx) error {
	o.any = false
	return o.in.open(ctx, o.Input)
}

// NextBatch implements Op.
func (o *Uniq) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		r, ok, err := o.in.pull(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if o.any && sameRow(o.last, r) {
			continue
		}
		o.last = append(o.last[:0], r...)
		o.any = true
		out.AppendRow(r)
	}
	return nil
}

func sameRow(a, b []storage.SNode) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Elem != b[i].Elem || a[i].Color != b[i].Color {
			return false
		}
	}
	return true
}

// Close implements Op.
func (o *Uniq) Close(ctx *Ctx) error {
	o.last = nil
	o.in.close(ctx)
	return o.Input.Close(ctx)
}

// Children implements Op.
func (o *Uniq) Children() []Op { return []Op{o.Input} }

func (o *Uniq) String() string { return "Uniq" }
