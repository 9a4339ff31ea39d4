package plan

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
)

// A text's shape is what the plan cache keys it by: its tokens with every
// string and numeric literal reduced to its kind (mcxquery.AppendShape), plus
// what else decides the plan — whether it is a query or an update's binding
// clauses, and the default colour. The literals are the arguments. Texts
// that differ only in literals share a shape, and one plan serves them all:
// the operators that compare with a literal take its value from the
// execution's arguments (engine.MemPool.Instance), and the cache checks that
// the plan fits the arguments before it serves them (Compiled.bind).

// Shape is a text's cache key and its literal tokens, in order. A Shape
// that Release gave back must not be used again.
type Shape struct {
	key  []byte
	args []pathexpr.Token
	buf  *shapeBuf
}

// shapeBuf holds a Shape's key and arguments for reuse (Release).
type shapeBuf struct {
	key  []byte
	args []pathexpr.Token
}

var shapeBufs = sync.Pool{New: func() any { return new(shapeBuf) }}

// Release hands the shape's memory back for the next scan; a caller that
// keeps the shape, as a prepared statement does, just does not call it.
func (sh Shape) Release() {
	if sh.buf != nil {
		sh.buf.key, sh.buf.args = sh.key[:0], sh.args[:0]
		shapeBufs.Put(sh.buf)
	}
}

// Shape kinds: the first byte of a key.
const (
	shapeQuery    = 'q'
	shapeBindings = 'b'
)

// QueryShape scans a query text's shape under the given options. ok is false
// when the text does not lex; such a text is never cached.
func QueryShape(src string, opt Options) (Shape, bool) {
	return scanShape(shapeQuery, src, opt)
}

func scanShape(kind byte, src string, opt Options) (Shape, bool) {
	b := shapeBufs.Get().(*shapeBuf)
	key := append(b.key[:0], kind)
	key = binary.AppendUvarint(key, uint64(len(opt.DefaultColor)))
	key = append(key, opt.DefaultColor...)
	key, args, err := mcxquery.AppendShape(key, b.args[:0], src)
	return Shape{key: key, args: args, buf: b}, err == nil
}

// lit is one literal of the text a plan was compiled from.
type lit struct {
	text  string
	value string // what the plan compares with (argValue)
	// numeric is the literal's class beyond its token kind (which the shape
	// holds): whether its value atomizes to a number, which picks numeric
	// comparison.
	numeric bool
	// param: an operator of the plan takes its value from this argument. A
	// literal no operator takes — document("db"), say — is fixed: the plan
	// serves only texts with the same one.
	param bool
}

// cardCheck records a content count a cost choice of the plan was made
// from: the nodes of a colour and tag whose content is argument arg (1-based),
// as the power of two the count lies below (bucket).
type cardCheck struct {
	arg    int
	color  core.Color
	tag    string
	bucket int
}

func bucket(n float64) int { return bits.Len(uint(n)) }

// recordLits records the text's literals the plan was compiled from, and
// which of them its operators take as arguments.
func (c *Compiled) recordLits(args []pathexpr.Token) {
	c.lits = make([]lit, len(args))
	for i, t := range args {
		v, numeric := argValue(t)
		c.lits[i] = lit{text: t.Text, value: v, numeric: numeric}
	}
	markParams(c.Root, c.lits)
}

// markParams marks the literals the operators of a plan take.
func markParams(op engine.Op, lits []lit) {
	arg := 0
	switch o := op.(type) {
	case *engine.EqContent:
		arg = o.Arg
	case *engine.ContainsScan:
		arg = o.Pred.Arg
	case *engine.Filter:
		arg = o.Pred.Arg
	case *engine.AttrFilter:
		arg = o.Pred.Arg
	}
	if arg > 0 {
		lits[arg-1].param = true
	}
	for _, ch := range op.Children() {
		markParams(ch, lits)
	}
}

// bind returns the arguments a text with literal tokens args runs c with —
// nil when they are the ones c was compiled from — or ok false when c does
// not fit them: a fixed literal or a literal's class differs, or (drift) a
// content count a cost choice of c read is now in another power of two.
// Recounting takes one index probe per check, and only for arguments that
// changed.
func (c *Compiled) bind(args []pathexpr.Token, cat Catalog) (vals []string, ok, drift bool) {
	if len(args) != len(c.lits) {
		// A plan put under the shape of a text it was not compiled for.
		return nil, false, false
	}
	for i, t := range args {
		l := &c.lits[i]
		if t.Text == l.text {
			continue
		}
		if !l.param {
			return nil, false, false
		}
		v, numeric := argValue(t)
		if numeric != l.numeric {
			return nil, false, false
		}
		if vals == nil {
			vals = make([]string, len(args))
			for j := range c.lits {
				vals[j] = c.lits[j].value
			}
		}
		vals[i] = v
	}
	if vals == nil {
		return nil, true, false
	}
	for _, chk := range c.checks {
		if vals[chk.arg-1] == c.lits[chk.arg-1].value {
			continue
		}
		if cat == nil || bucket(cat.EqCard(chk.color, chk.tag, vals[chk.arg-1])) != chk.bucket {
			return nil, false, true
		}
	}
	return vals, true, false
}

// Plan is a compiled plan with the arguments one execution runs it with.
type Plan struct {
	*Compiled
	// Args are the values of the plan's literals (nil: those it was
	// compiled with).
	Args []string
}

// Instance returns the operator tree one execution runs, taking the plan's
// arguments, from the plan's memory pool; the caller hands it back with
// p.Mem.PutInstance once the execution succeeded.
func (p Plan) Instance() *engine.Instance { return p.Mem.Instance(p.Root, p.Args) }

// Bindings returns the plan of an update's binding clauses — the for, let
// and where clauses, whose text src is the update up to its update clause —
// for execution at epoch: the cached plan of src's shape with src's literals
// as arguments, or one compiled for src and cached. The update operations
// are not part of the shape, so updates that bind alike share a plan
// whatever they insert or write. Compile errors, ErrUnsupported among them,
// are returned and nothing is cached.
func (c *Cache) Bindings(src string, clauses []mcxquery.Clause, where pathexpr.Expr, opt Options, epoch uint64) (Plan, error) {
	sh, _ := scanShape(shapeBindings, src, opt) // src parsed, so it lexes
	defer sh.Release()
	if p, hit := c.GetShape(sh, opt, epoch); hit {
		return p, nil
	}
	comp, err := compileBindings(clauses, where, sh.args, opt)
	if err != nil {
		return Plan{}, err
	}
	c.PutShape(sh, epoch, comp)
	return Plan{Compiled: comp}, nil
}
