package plan

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/mcxquery"
	"colorfulxml/internal/pathexpr"
	"colorfulxml/internal/storage"
)

// A text's shape is what the plan cache keys it by: its tokens with every
// literal — string, number, or text inside a direct constructor — reduced to
// its kind (mcxquery.AppendShape), plus what else decides the entry — whether
// it is a query, an update's binding clauses or a whole update text, and the
// default colour. The literals are the arguments. Texts that differ only in
// literals share a shape, and one plan serves them all: the operators that
// compare with a literal take its value from the execution's arguments
// (engine.MemPool.Instance), and the cache checks that the plan fits the
// arguments before it serves them (Compiled.bind). An update text's shape
// keys its parsed template instead (Cache.Template).

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

// Args returns the shape's literal tokens, in text order.
func (sh Shape) Args() []pathexpr.Token { return sh.args }

// Shape kinds: the first byte of a key.
const (
	shapeQuery    = 'q'
	shapeBindings = 'b'
	shapeUpdate   = 'u'
)

// QueryShape scans a query text's shape under the given options. ok is false
// when the text does not lex; such a text is never cached.
func QueryShape(src string, opt Options) (Shape, bool) {
	return scanShape(shapeQuery, src, opt)
}

// UpdateShape scans a whole update text's shape, by which the cache keeps
// its parsed template (Cache.Template). Parsing does not depend on the
// options, so none are part of it. ok is false when the text does not lex.
func UpdateShape(src string) (Shape, bool) {
	return scanShape(shapeUpdate, src, Options{})
}

func scanShape(kind byte, src string, opt Options) (Shape, bool) {
	b := shapeBufs.Get().(*shapeBuf)
	key, args, err := mcxquery.AppendShape(appendHeader(b.key[:0], kind, opt), b.args[:0], src)
	return Shape{key: key, args: args, buf: b}, err == nil
}

// appendHeader appends what of a key is not the text's tokens: its kind and
// the default colour.
func appendHeader(key []byte, kind byte, opt Options) []byte {
	key = append(key, kind)
	key = binary.AppendUvarint(key, uint64(len(opt.DefaultColor)))
	return append(key, opt.DefaultColor...)
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
// changed; a store's catalog leaves the run it counted in run, for the
// execution's content lookup to read instead of seeking it again.
func (c *Compiled) bind(args []pathexpr.Token, cat Catalog, run *storage.ContentRun) (vals []string, ok, drift bool) {
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
		v := vals[chk.arg-1]
		if v == c.lits[chk.arg-1].value {
			continue
		}
		var n float64
		switch sc := cat.(type) {
		case nil:
			return nil, false, true
		case StoreCatalog:
			*run = sc.Store.CountRun(chk.color, chk.tag, v)
			n = float64(run.N)
		default:
			n = cat.EqCard(chk.color, chk.tag, v)
		}
		if bucket(n) != chk.bucket {
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
	// run is a content run counted while checking the plan against Args.
	run storage.ContentRun
}

// Instance returns the operator tree one execution runs, taking the plan's
// arguments, from the plan's memory pool; the caller hands it back with
// p.Mem.PutInstance once the execution succeeded.
func (p Plan) Instance() *engine.Instance { return p.Mem.Instance(p.Root, p.Args, &p.run) }

// Bindings returns the plan of an update's binding clauses — the for, let
// and where clauses that open the update text — for execution at epoch: the
// cached plan of their shape with args as arguments, or one compiled from
// what clauses returns and cached. tokens is the shape mcxquery.AppendShape
// gives the text up to the update clause, and args its literal tokens: the
// first ones of the whole text, since the bindings come first, so a parsed
// update carries both and nothing is scanned here. The update operations
// are not part of the shape, so updates that bind alike share a plan
// whatever they insert or write. Compile errors, ErrUnsupported among them,
// are returned and nothing is cached.
func (c *Cache) Bindings(tokens []byte, args []pathexpr.Token, clauses func() ([]mcxquery.Clause, pathexpr.Expr), opt Options, epoch uint64) (Plan, error) {
	b := shapeBufs.Get().(*shapeBuf)
	sh := Shape{
		key:  append(appendHeader(b.key[:0], shapeBindings, opt), tokens...),
		args: append(b.args[:0], args...),
		buf:  b,
	}
	defer sh.Release()
	if p, hit := c.GetShape(sh, opt, epoch); hit {
		return p, nil
	}
	cls, where := clauses()
	comp, err := compileBindings(cls, where, sh.args, opt)
	if err != nil {
		return Plan{}, err
	}
	c.PutShape(sh, epoch, comp)
	return Plan{Compiled: comp}, nil
}
