package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
)

// ObsRegister mechanizes internal/obs's registration discipline: instruments
// are registered exactly once, at package init time. Registration takes a
// lock and panics on a duplicate name, so a registration reachable from a
// request path is a latent crash; the analyzer requires every call to
// obs.NewCounter/NewLabeledCounter/NewGauge/NewHistogram (and the
// Registry.Counter/LabeledCounter/Gauge/Histogram methods) to sit in a
// package-level var declaration or an init function. The instrument name
// must be a snake_case string literal with a subsystem prefix
// ("wal_fsyncs_total") — a computed name defeats both the static duplicate
// check and grep — and must be unique within its package; a labeled counter's
// label and value are literals too, and it is the series (name, label, value)
// that must be unique.
//
// internal/obs itself is exempt: its constructors and tests are the
// registration machinery.
var ObsRegister = &Analyzer{
	Name: "obsregister",
	Doc:  "obs instruments must be registered once, at init, under snake_case literal names",
	Run:  runObsRegister,
}

// obsNameRe mirrors internal/obs's naming rule: snake_case, at least two
// segments, the first being the owning subsystem.
var obsNameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// obsRegistrationFuncs are the registering callables of internal/obs; every
// other obs function (Inc, Observe, Snapshot, ...) records or reads and is
// unrestricted.
var obsRegistrationFuncs = map[string]bool{
	"NewCounter": true, "NewGauge": true, "NewHistogram": true,
	"Counter": true, "Gauge": true, "Histogram": true,
	"NewLabeledCounter": true, "LabeledCounter": true,
}

func runObsRegister(pass *Pass) error {
	if pathHasSuffix(pass.Path, "internal/obs") {
		return nil
	}
	seen := map[string]token.Pos{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				// Package-level var initializers are the sanctioned site.
				checkObsCalls(pass, d, d.Tok == token.VAR, seen)
			case *ast.FuncDecl:
				isInit := d.Recv == nil && d.Name.Name == "init"
				checkObsCalls(pass, d, isInit, seen)
			}
		}
	}
	return nil
}

// checkObsCalls walks one top-level declaration; atInit marks declarations
// where registration is allowed (package var blocks and init functions).
func checkObsCalls(pass *Pass, root ast.Node, atInit bool, seen map[string]token.Pos) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(pass.Info, call)
		if obj == nil || obj.Pkg() == nil ||
			!pathHasSuffix(obj.Pkg().Path(), "internal/obs") ||
			!obsRegistrationFuncs[obj.Name()] {
			return true
		}
		if !atInit {
			pass.Reportf(call.Pos(),
				"obs instrument registered outside package init; registration locks and panics on duplicates — move it to a package-level var or init()")
		}
		if len(call.Args) == 0 {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			pass.Reportf(call.Args[0].Pos(),
				"obs instrument name must be a string literal; a computed name defeats the static duplicate check")
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		if !obsNameRe.MatchString(name) {
			pass.Reportf(lit.Pos(),
				"obs instrument name %q is not subsystem_name snake_case", name)
			return true
		}
		if obj.Name() == "NewLabeledCounter" || obj.Name() == "LabeledCounter" {
			// The series is the unit of registration.
			for _, arg := range call.Args[1:] {
				l, ok := arg.(*ast.BasicLit)
				if !ok || l.Kind != token.STRING {
					pass.Reportf(arg.Pos(),
						"obs label and value must be string literals; a computed series defeats the static duplicate check")
					return true
				}
				name += "," + l.Value
			}
		}
		if prev, dup := seen[name]; dup {
			pass.Reportf(lit.Pos(),
				"obs instrument %q already registered in this package at %s",
				name, pass.Fset.Position(prev))
			return true
		}
		seen[name] = lit.Pos()
		return true
	})
}
