package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"colorfulxml/internal/lint"
)

// buildCFG parses a function body and builds its control-flow graph.
func buildCFG(t *testing.T, body string) *lint.CFG {
	t.Helper()
	src := "package p\nfunc probe() {\n" + body + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "probe.go", src, 0)
	if err != nil {
		t.Fatalf("parsing probe body: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return lint.BuildCFG(fd.Body)
}

// findCall locates the block containing a call to the named function.
func findCall(cfg *lint.CFG, name string) *lint.Block {
	for _, b := range cfg.Blocks {
		for _, s := range b.Stmts {
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				return b
			}
		}
	}
	return nil
}

// canReach reports whether to is reachable from from along successor edges.
func canReach(from, to *lint.Block) bool {
	seen := map[*lint.Block]bool{}
	var walk func(*lint.Block) bool
	walk = func(b *lint.Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// stmtCount sums the statements across reachable blocks.
func stmtCount(cfg *lint.CFG) int {
	n := 0
	seen := map[*lint.Block]bool{}
	var walk func(*lint.Block)
	walk = func(b *lint.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		n += len(b.Stmts)
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(cfg.Entry)
	return n
}

func TestCFGStraightLine(t *testing.T) {
	cfg := buildCFG(t, "a := 1\nb := a\n_ = b")
	if !canReach(cfg.Entry, cfg.Exit) {
		t.Fatalf("exit unreachable:\n%s", cfg)
	}
	if got := stmtCount(cfg); got != 3 {
		t.Errorf("want 3 statements on the reachable flow, got %d:\n%s", got, cfg)
	}
}

func TestCFGBranches(t *testing.T) {
	cfg := buildCFG(t, "if cond() {\n\tthenCall()\n} else {\n\telseCall()\n}\njoin()")
	condBlk := findCall(cfg, "cond")
	if condBlk == nil {
		t.Fatalf("condition expression not materialized in any block:\n%s", cfg)
	}
	if len(condBlk.Succs) != 2 || condBlk.Succs[0] != findCall(cfg, "thenCall") || condBlk.Succs[1] != findCall(cfg, "elseCall") {
		t.Errorf("condition block wants 2 successors, then and else in that order:\n%s", cfg)
	}
	if condBlk.Cond == nil {
		t.Errorf("condition block does not record its condition:\n%s", cfg)
	}
	join := findCall(cfg, "join")
	for _, arm := range []string{"thenCall", "elseCall"} {
		if blk := findCall(cfg, arm); blk == nil || !canReach(blk, join) {
			t.Errorf("%s does not flow to the join:\n%s", arm, cfg)
		}
	}
	if !canReach(cfg.Entry, cfg.Exit) {
		t.Errorf("exit unreachable:\n%s", cfg)
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	cfg := buildCFG(t, "for i := 0; i < 3; i++ {\n\tbody()\n}\nafter()")
	body := findCall(cfg, "body")
	if body == nil {
		t.Fatalf("loop body not found:\n%s", cfg)
	}
	if !canReach(body, body) {
		t.Errorf("loop body has no back edge to itself:\n%s", cfg)
	}
	if after := findCall(cfg, "after"); after == nil || !canReach(cfg.Entry, after) {
		t.Errorf("loop exit path missing:\n%s", cfg)
	}
}

func TestCFGBreakEscapesInfiniteLoop(t *testing.T) {
	noBreak := buildCFG(t, "for {\n\tspin()\n}")
	if canReach(noBreak.Entry, noBreak.Exit) {
		t.Errorf("for {} without break must not reach exit:\n%s", noBreak)
	}
	withBreak := buildCFG(t, "for {\n\tif p() {\n\t\tbreak\n\t}\n}\nafter()")
	if !canReach(withBreak.Entry, withBreak.Exit) {
		t.Errorf("break must make exit reachable:\n%s", withBreak)
	}
}

func TestCFGNestedBreakTargets(t *testing.T) {
	// The switch's implicit break target must not clobber the enclosing
	// loop's: the outer break must still leave the loop afterwards.
	cfg := buildCFG(t, `for {
	switch k() {
	case 1:
		break
	}
	if q() {
		break
	}
}
after()`)
	if !canReach(cfg.Entry, cfg.Exit) {
		t.Errorf("outer break must reach exit:\n%s", cfg)
	}
	if after := findCall(cfg, "after"); after == nil || !canReach(cfg.Entry, after) {
		t.Errorf("code after the loop unreachable:\n%s", cfg)
	}
}

func TestCFGDefersCollectedNotFlowed(t *testing.T) {
	cfg := buildCFG(t, "defer cleanup()\nwork()\nf := func() { defer nested() }\n_ = f")
	if len(cfg.Defers) != 1 {
		t.Fatalf("want 1 defer (the nested literal's excluded), got %d", len(cfg.Defers))
	}
}

func TestCFGReturnEndsFlow(t *testing.T) {
	cfg := buildCFG(t, "if p() {\n\treturn\n}\nafter()")
	if !canReach(cfg.Entry, cfg.Exit) {
		t.Fatalf("exit unreachable:\n%s", cfg)
	}
	if after := findCall(cfg, "after"); after == nil || !canReach(cfg.Entry, after) {
		t.Errorf("fall-through path unreachable:\n%s", cfg)
	}
	if !strings.Contains(cfg.String(), "exit") {
		t.Errorf("String() lost the exit annotation:\n%s", cfg)
	}
}

func TestCFGTerminalCallEndsFlow(t *testing.T) {
	cfg := buildCFG(t, "panic(\"boom\")")
	if got := stmtCount(cfg); got != 1 {
		t.Errorf("want the panic statement only on the reachable flow, got %d:\n%s", got, cfg)
	}
	if !canReach(cfg.Entry, cfg.Exit) {
		t.Errorf("panic must edge to exit:\n%s", cfg)
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	cfg := buildCFG(t, `switch v() {
case 1:
	one()
	fallthrough
case 2:
	two()
default:
	other()
}`)
	one, two := findCall(cfg, "one"), findCall(cfg, "two")
	if one == nil || two == nil {
		t.Fatalf("case bodies not found:\n%s", cfg)
	}
	direct := false
	for _, s := range one.Succs {
		if s == two {
			direct = true
		}
	}
	if !direct {
		t.Errorf("fallthrough edge missing from one() to two():\n%s", cfg)
	}
}

func TestCFGGotoForward(t *testing.T) {
	cfg := buildCFG(t, "if p() {\n\tgoto done\n}\nmid()\ndone:\nend()")
	if !canReach(cfg.Entry, cfg.Exit) {
		t.Fatalf("exit unreachable:\n%s", cfg)
	}
	end := findCall(cfg, "end")
	if end == nil || !canReach(cfg.Entry, end) {
		t.Fatalf("goto target unreachable:\n%s", cfg)
	}
	if mid := findCall(cfg, "mid"); mid == nil || !canReach(mid, end) {
		t.Errorf("fall-through path to the label missing:\n%s", cfg)
	}
}

func TestCFGSelect(t *testing.T) {
	cfg := buildCFG(t, `select {
case <-a:
	one()
case <-b:
	two()
}`)
	for _, arm := range []string{"one", "two"} {
		if blk := findCall(cfg, arm); blk == nil || !canReach(cfg.Entry, blk) {
			t.Errorf("select arm %s unreachable:\n%s", arm, cfg)
		}
	}
	if !canReach(cfg.Entry, cfg.Exit) {
		t.Errorf("exit unreachable after select:\n%s", cfg)
	}
}

// TestFlowSolve runs a "which calls may have run" analysis, a bit per
// called name, over a loop left by a break. The edge refinement tags the
// true edge of q(), which only the break path carries.
func TestFlowSolve(t *testing.T) {
	cfg := buildCFG(t, "a()\nfor p() {\n\tif q() {\n\t\tb()\n\t\tbreak\n\t}\n\tc()\n}\nd()")
	bits := map[string]uint{"a": 1, "b": 2, "c": 4, "d": 8}
	const tookQ = 16
	emitted := map[*lint.Block]int{}
	in := lint.Flow[uint]{
		Transfer: func(b *lint.Block, in uint, emit bool) uint {
			if emit {
				emitted[b]++
			}
			for _, s := range b.Stmts {
				if es, ok := s.(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok {
						in |= bits[call.Fun.(*ast.Ident).Name]
					}
				}
			}
			return in
		},
		Join:  func(a, b uint) uint { return a | b },
		Equal: func(a, b uint) bool { return a == b },
		Edge: func(b *lint.Block, i int, out uint) uint {
			if b.Cond != nil && i == 0 && b == findCall(cfg, "q") {
				return out | tookQ
			}
			return out
		},
	}.Solve(cfg)
	if got := in[cfg.Exit.Index]; got != 1|2|4|8|tookQ {
		t.Errorf("exit in-state %b, want %b", got, 1|2|4|8|tookQ)
	}
	if got := in[findCall(cfg, "c").Index]; got != 1|4 {
		t.Errorf("c()'s in-state %b, want a, and c from the back edge", got)
	}
	for _, blk := range cfg.Blocks {
		if n := emitted[blk]; n > 1 || (n == 0 && canReach(cfg.Entry, blk)) {
			t.Errorf("block b%d emitted %d times:\n%s", blk.Index, n, cfg)
		}
	}
}
