package engine

import (
	"fmt"

	"colorfulxml/internal/core"
	"colorfulxml/internal/storage"
)

// PathScan is the path-summary access path: it probes the store's DataGuide
// summary (storage.PathSummary) with a root-anchored colored label-path
// pattern and reads exactly the nodes on matching paths, replacing an entire
// structural-join chain for path expressions the summary fully resolves. It
// emits the final step's nodes as single-column rows in start order, each
// node at most once (a node has exactly one root path) — the multiplicity a
// structural join would produce for multiple witnesses collapses, which is
// value-equivalent for the set-valued results compiled plans produce.
//
// A pattern matching one label path streams: the path's refs are in start
// order, which is the order a bulk load wrote the records in, so each batch
// is resolved page by page like an index scan's. A pattern matching several
// paths is a materializing leaf: their runs interleave in the document, so
// they are resolved and merged into start order at Open.
type PathScan struct {
	Color core.Color
	Steps []storage.PathStep

	refs  []uint64        // one matching path: its refs, streamed
	nodes []storage.SNode // several: resolved and sorted at Open
	pos   int
	held  int
}

// Open implements Op.
func (o *PathScan) Open(ctx *Ctx) error {
	ps, err := ctx.S.PathSummary(o.Color)
	if err != nil {
		return err
	}
	runs := ps.Match(o.Steps)
	o.refs, o.nodes, o.pos = nil, nil, 0
	if len(runs) == 1 {
		o.refs = runs[0]
		return nil
	}
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	o.nodes = make([]storage.SNode, total)
	at := 0
	for _, run := range runs {
		if err := ctx.S.StructsByRef(o.nodes[at:at+len(run)], run, o.Color); err != nil {
			return err
		}
		at += len(run)
	}
	sortByStart(o.nodes)
	o.held = total
	ctx.hold(o, o.held)
	return nil
}

// NextBatch implements Op: a bulk resolve or a bulk emit (the per-batch
// cancellation check in pullBatch suffices — there is no per-row work here).
func (o *PathScan) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	if o.nodes != nil {
		o.pos += out.appendNodes(o.nodes[o.pos:])
		return nil
	}
	n, err := out.fillStructs(ctx.S, o.refs[o.pos:], o.Color)
	o.pos += n
	return err
}

// Close implements Op.
func (o *PathScan) Close(ctx *Ctx) error {
	ctx.release(o.held)
	o.held = 0
	o.refs, o.nodes = nil, nil
	return nil
}

// Children implements Op.
func (o *PathScan) Children() []Op { return nil }

func (o *PathScan) String() string {
	return fmt.Sprintf("PathScan{%s}%s", o.Color, storage.PathString(o.Steps))
}
