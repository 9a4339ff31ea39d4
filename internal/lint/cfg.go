package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file is the intraprocedural control-flow layer of the flow analyzers:
// a statement-granularity CFG over go/ast, and one forward may-dataflow
// solver (Flow) that lockorder, batchalias and sessionclose all run on it,
// without needing SSA. Blocks hold the statements that execute
// straight-line; successor edges model if/for/range/switch/select,
// labeled break/continue, goto, return, and the terminal calls panic and
// os.Exit. A defer statement stays in its block, where each analyzer
// decides what it means, and is also listed in CFG.Defers.

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every block in creation order; Blocks[0] is the entry.
	Blocks []*Block
	// Entry receives control at the function's start; Exit collects every
	// return, fall-off-the-end, and terminal call. Neither holds statements.
	Entry, Exit *Block
	// Defers lists the function's defer statements in source order,
	// excluding those inside nested function literals.
	Defers []*ast.DeferStmt
}

// Block is one straight-line run of statements.
type Block struct {
	Index int
	// Stmts execute in order; control then moves to one of Succs.
	// Compound statements contribute their sub-expressions here (an IfStmt's
	// init+cond, a SwitchStmt's tag, ...) via small wrapper statements, so a
	// linear scan of Stmts sees every expression the block evaluates.
	Stmts []ast.Stmt
	Succs []*Block
	// Cond is the condition of the if statement the block ends with, nil
	// otherwise; Succs[0] is then the true edge and Succs[1] the false one.
	Cond ast.Expr
}

// Flow is a forward may-dataflow problem over a CFG, with states of type S.
type Flow[S any] struct {
	// Entry is the state on entry to the function.
	Entry S
	// Transfer returns the state after b's statements, given the state
	// before them; it must not modify in. emit is set only on the final
	// pass, which visits each reachable block once: report findings then.
	Transfer func(b *Block, in S, emit bool) S
	// Join merges two states meeting at a block; Equal detects the fixed
	// point. Neither may modify its arguments.
	Join  func(a, b S) S
	Equal func(a, b S) bool
	// Edge, when set, refines the out-state b passes along b.Succs[i].
	Edge func(b *Block, i int, out S) S
}

// Solve runs f to a fixed point over cfg's block in-states with a
// worklist, then runs Transfer with emit set once per reachable block, in
// block order. It returns the in-states, the zero S for unreachable blocks.
func (f Flow[S]) Solve(cfg *CFG) []S {
	in := make([]S, len(cfg.Blocks))
	reached := make([]bool, len(cfg.Blocks))
	in[cfg.Entry.Index], reached[cfg.Entry.Index] = f.Entry, true
	work := []*Block{cfg.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := f.Transfer(b, in[b.Index], false)
		for i, succ := range b.Succs {
			s := out
			if f.Edge != nil {
				s = f.Edge(b, i, out)
			}
			j := succ.Index
			if reached[j] {
				if s = f.Join(in[j], s); f.Equal(s, in[j]) {
					continue
				}
			}
			in[j], reached[j] = s, true
			work = append(work, succ)
		}
	}
	for _, b := range cfg.Blocks {
		if reached[b.Index] {
			f.Transfer(b, in[b.Index], true)
		}
	}
	return in
}

// cfgBuilder threads the under-construction graph: cur is the block new
// statements append to (nil after a terminal statement — subsequent dead
// code lands in a fresh unreachable block).
type cfgBuilder struct {
	cfg *CFG
	cur *Block
	// breakTo / continueTo map "" to the innermost target and each label to
	// its loop or switch.
	breakTo    map[string]*Block
	continueTo map[string]*Block
	labels     map[string]*Block   // goto targets materialized so far
	gotos      map[string][]*Block // blocks waiting for a label
	labelNext  string              // pending label for the next loop/switch
	// breakStack / contStack save the outer "" targets across nested
	// loops and switches.
	breakStack []*Block
	contStack  []*Block
}

// BuildCFG builds the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:        &CFG{},
		breakTo:    map[string]*Block{},
		continueTo: map[string]*Block{},
		labels:     map[string]*Block{},
		gotos:      map[string][]*Block{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.newBlock()
	b.edge(b.cfg.Entry, b.cur)
	b.stmts(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit)
	}
	// Unresolved gotos (labels on plain statements handled below) fall
	// through to exit so the graph stays connected.
	for _, pending := range b.gotos {
		for _, from := range pending {
			b.edge(from, b.cfg.Exit)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startBlock makes next the current block, linking it from the previous
// current block when control can fall through.
func (b *cfgBuilder) startBlock(next *Block) {
	if b.cur != nil {
		b.edge(b.cur, next)
	}
	b.cur = next
}

func (b *cfgBuilder) append(s ast.Stmt) {
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable code still gets a block
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// exprStmt wraps a compound statement's sub-expression (an if condition, a
// switch tag, a range operand) so it appears in a block's statement list.
func exprStmt(e ast.Expr) ast.Stmt {
	if e == nil {
		return nil
	}
	return &ast.ExprStmt{X: e}
}

func (b *cfgBuilder) appendExpr(e ast.Expr) {
	if s := exprStmt(e); s != nil {
		b.append(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		b.stmts(x.List)
	case *ast.LabeledStmt:
		switch x.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.labelNext = x.Label.Name
			b.stmt(x.Stmt)
			b.labelNext = ""
		default:
			// A goto target on a plain statement: materialize a block.
			target := b.newBlock()
			b.startBlock(target)
			b.labels[x.Label.Name] = target
			for _, from := range b.gotos[x.Label.Name] {
				b.edge(from, target)
			}
			delete(b.gotos, x.Label.Name)
			b.stmt(x.Stmt)
		}
	case *ast.IfStmt:
		b.stmt(x.Init)
		b.appendExpr(x.Cond)
		condBlk := b.cur
		condBlk.Cond = x.Cond
		join := b.newBlock()
		thenBlk := b.newBlock()
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmt(x.Body)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
		if x.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(x.Else)
			if b.cur != nil {
				b.edge(b.cur, join)
			}
		} else {
			b.edge(condBlk, join)
		}
		b.cur = join
	case *ast.ForStmt:
		b.stmt(x.Init)
		head := b.newBlock()
		b.startBlock(head)
		b.appendExpr(x.Cond)
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		if x.Cond != nil {
			b.edge(head, exit) // condition can fail
		}
		label := b.labelNext
		b.labelNext = ""
		post := head
		if x.Post != nil {
			post = b.newBlock()
		}
		b.pushLoop(label, exit, post)
		b.cur = body
		b.stmt(x.Body)
		if x.Post != nil {
			b.startBlock(post)
			b.stmt(x.Post)
			if b.cur != nil {
				b.edge(b.cur, head)
			}
		} else if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.popLoop(label)
		b.cur = exit
	case *ast.RangeStmt:
		b.appendExpr(x.X)
		head := b.newBlock()
		b.startBlock(head)
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		b.edge(head, exit) // a range always may be empty/exhausted
		label := b.labelNext
		b.labelNext = ""
		b.pushLoop(label, exit, head)
		b.cur = body
		b.stmt(x.Body)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.popLoop(label)
		b.cur = exit
	case *ast.SwitchStmt:
		b.stmt(x.Init)
		b.appendExpr(x.Tag)
		b.caseClauses(x.Body, true)
	case *ast.TypeSwitchStmt:
		b.stmt(x.Init)
		b.stmt(x.Assign)
		b.caseClauses(x.Body, true)
	case *ast.SelectStmt:
		b.caseClauses(x.Body, false)
	case *ast.ReturnStmt:
		b.append(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		label := ""
		if x.Label != nil {
			label = x.Label.Name
		}
		switch x.Tok {
		case token.BREAK:
			if t, ok := b.breakTo[label]; ok {
				b.edge(b.cur, t)
				b.cur = nil
			}
		case token.CONTINUE:
			if t, ok := b.continueTo[label]; ok {
				b.edge(b.cur, t)
				b.cur = nil
			}
		case token.GOTO:
			if t, ok := b.labels[label]; ok {
				b.edge(b.cur, t)
			} else if b.cur != nil {
				b.gotos[label] = append(b.gotos[label], b.cur)
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// caseClauses wires the fallthrough edge; nothing to do here.
		}
	case *ast.DeferStmt:
		// stmt never descends into FuncLit bodies (they live inside
		// expressions), so every defer seen here belongs to this function.
		b.cfg.Defers = append(b.cfg.Defers, x)
		b.append(s)
	case *ast.ExprStmt:
		b.append(s)
		if isTerminalCall(x.X) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}
	default:
		b.append(s)
	}
}

// caseClauses builds the blocks of a switch/type-switch/select body. For
// switches, withTag adds the fall-past edge when no default clause exists;
// consecutive clauses are linked for fallthrough.
func (b *cfgBuilder) caseClauses(body *ast.BlockStmt, isSwitch bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	join := b.newBlock()
	label := b.labelNext
	b.labelNext = ""
	prevBreak, hadBreak := b.breakTo[""]
	b.breakTo[""] = join
	if label != "" {
		b.breakTo[label] = join
	}

	hasDefault := false
	clauseBlocks := make([]*Block, 0, len(body.List))
	for range body.List {
		clauseBlocks = append(clauseBlocks, b.newBlock())
	}
	for i, cl := range body.List {
		blk := clauseBlocks[i]
		b.edge(head, blk)
		b.cur = blk
		var stmts []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				b.appendExpr(e)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			b.stmt(c.Comm)
			stmts = c.Body
		}
		fellThrough := false
		for _, st := range stmts {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(clauseBlocks) {
					b.edge(b.cur, clauseBlocks[i+1])
					b.cur = nil
					fellThrough = true
				}
				continue
			}
			b.stmt(st)
		}
		if !fellThrough && b.cur != nil {
			b.edge(b.cur, join)
		}
	}
	if isSwitch && !hasDefault {
		b.edge(head, join) // no case matched
	}
	if len(body.List) == 0 {
		b.edge(head, join)
	}
	if hadBreak {
		b.breakTo[""] = prevBreak
	} else {
		delete(b.breakTo, "")
	}
	if label != "" {
		delete(b.breakTo, label)
	}
	b.cur = join
}

// pushLoop / popLoop maintain the break/continue target stacks: the "" key
// always points at the innermost loop, and the stacks restore the outer
// targets when a nested loop ends.
func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breakStack = append(b.breakStack, b.breakTo[""])
	b.contStack = append(b.contStack, b.continueTo[""])
	b.breakTo[""] = brk
	b.continueTo[""] = cont
	if label != "" {
		b.breakTo[label] = brk
		b.continueTo[label] = cont
	}
}

func (b *cfgBuilder) popLoop(label string) {
	n := len(b.breakStack) - 1
	b.breakTo[""] = b.breakStack[n]
	b.continueTo[""] = b.contStack[n]
	b.breakStack = b.breakStack[:n]
	b.contStack = b.contStack[:n]
	if label != "" {
		delete(b.breakTo, label)
		delete(b.continueTo, label)
	}
}

// String renders the graph compactly for tests and debugging:
// "b2[3 stmts] -> b4 b5" per block, reachable blocks only.
func (c *CFG) String() string {
	reach := map[*Block]bool{}
	var mark func(*Block)
	mark = func(b *Block) {
		if b == nil || reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Succs {
			mark(s)
		}
	}
	mark(c.Entry)
	var sb strings.Builder
	for _, b := range c.Blocks {
		if !reach[b] {
			continue
		}
		succs := make([]int, 0, len(b.Succs))
		for _, s := range b.Succs {
			succs = append(succs, s.Index)
		}
		sort.Ints(succs)
		fmt.Fprintf(&sb, "b%d[%d]", b.Index, len(b.Stmts))
		if b == c.Entry {
			sb.WriteString(" entry")
		}
		if b == c.Exit {
			sb.WriteString(" exit")
		}
		for _, s := range succs {
			fmt.Fprintf(&sb, " ->b%d", s)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
