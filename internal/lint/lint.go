// Package lint is a repo-specific static-analysis suite for the invariants
// of the colorful MCT system that neither the type system, go vet, the obs
// registry's init-time checks nor the runtime leak and race checks can see:
// production file I/O must flow through internal/vfs, every colorful.DB
// mutation must run in the one durable commit scope (commit/commitLocked),
// every Session and Stmt must reach Close, engine operators must poll
// cancellation from their row loops, sentinel errors must be compared with
// errors.Is/errors.As and wrapped with %w, the crash-test workload and the
// WAL/checkpoint encoders must stay deterministic, mutexes must be taken in
// the documented order, and no batch row view may outlive its batch.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is implemented entirely on the standard
// library: packages are enumerated and compiled with `go list -export`, and
// type-checked with go/types against the compiled export data of their
// dependencies. That keeps the module dependency-free — the lint tool runs
// with the same toolchain that builds the repo and nothing else.
//
// Drivers: cmd/mctlint runs every analyzer over a package pattern;
// internal/lint/linttest runs one analyzer over a testdata fixture module
// and checks its diagnostics against `// want "regexp"` comments.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring analysis.Analyzer. An analyzer is
// either per-package (Run) or whole-program (RunProgram): per-package checks
// see one type-checked package at a time, whole-program checks see every
// loaded package at once plus the static call graph, which is what the
// cross-package lock-ordering invariant needs. Exactly one of Run /
// RunProgram is set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test expectations.
	Name string
	// Doc is the one-paragraph description printed by `mctlint -list`.
	Doc string
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass) error
	// RunProgram inspects the whole loaded program at once.
	RunProgram func(pass *ProgramPass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test syntax trees. Test files are never
	// loaded, so every analyzer is automatically exempt in tests.
	Files []*ast.File
	// Pkg and Info are the go/types results for the package.
	Pkg  *types.Package
	Info *types.Info
	// Path is the package import path (Pkg.Path(), kept separate so scoping
	// helpers read naturally).
	Path string

	report func(Diagnostic)
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf formats and emits a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Program is the whole-program view handed to RunProgram analyzers: every
// loaded package (sharing one FileSet, so positions resolve uniformly) and
// the static call graph across them.
type Program struct {
	Packages []*Package
	Fset     *token.FileSet
	// CallGraph is built lazily by the first analyzer that asks for it.
	callGraph *CallGraph
}

// NewProgram assembles a Program over the loaded packages.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{Packages: pkgs}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	} else {
		p.Fset = token.NewFileSet()
	}
	return p
}

// CallGraph returns the program's static call graph, building it on first
// use.
func (p *Program) CallGraph() *CallGraph {
	if p.callGraph == nil {
		p.callGraph = BuildCallGraph(p.Packages)
	}
	return p.callGraph
}

// ProgramPass carries one whole-program analyzer's view of the program.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	report func(Diagnostic)
}

// Report emits a diagnostic.
func (p *ProgramPass) Report(d Diagnostic) { p.report(d) }

// Reportf formats and emits a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a located diagnostic, ready for printing or matching.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		VFSOnly,
		CommitScope,
		SessionClose,
		CtxPoll,
		ErrWrapSentinel,
		Determinism,
		LockOrder,
		BatchAlias,
	}
}

// Run applies the analyzers to every package and returns the findings
// sorted by file, line, column and analyzer name. Per-package analyzers see
// one package at a time; whole-program analyzers see all of them at once
// through a shared Program.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = NewProgram(pkgs)
		}
		a := a
		pass := &ProgramPass{Analyzer: a, Prog: prog}
		pass.report = func(d Diagnostic) {
			out = append(out, Finding{
				Analyzer: a.Name,
				Position: prog.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if err := a.RunProgram(pass); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     pkg.Path,
			}
			pass.report = func(d Diagnostic) {
				out = append(out, Finding{
					Analyzer: a.Name,
					Position: pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// --- shared scoping and AST helpers ---------------------------------------

// pathHasSuffix reports whether an import path is pkg or ends in "/"+pkg,
// for suffix-scoped analyzers (fixture modules mirror the repo's layout
// under their own module path, so suffix matching scopes both).
func pathHasSuffix(path, pkg string) bool {
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// calleeObj resolves a call expression's callee to its types.Object (the
// function or method being called), unwrapping parens; nil for indirect
// calls through non-named expressions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the named function of the named package.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// calleeName returns the bare name a call is spelled with (x.Sel or ident),
// for syntax-keyed analyzers; "" for other call shapes.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// isTerminalCall recognizes statements that end the path: panic(...) and
// os.Exit(...).
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			return id.Name == "os" && fn.Sel.Name == "Exit"
		}
	}
	return false
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t (or *t) implements the error interface.
func implementsError(t types.Type) bool {
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}
