package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testsOnlyExports are the exported functions and methods of the module that
// only tests reference (TestNoNewDeadExports), by types.Func.FullName. The
// list may only shrink: a name leaves it when its code goes, or when the
// code it serves calls it.
var testsOnlyExports = []string{
	// Fault injection: the crash and fault harnesses drive these.
	"(*colorfulxml/internal/vfs.CrashFS).BytesWritten",
	"(*colorfulxml/internal/vfs.CrashFS).Crashed",
	"(*colorfulxml/internal/vfs.FaultFS).SetSleep",
	"(*colorfulxml/internal/vfs.FaultFS).SetSyncDelay",
	"colorfulxml/internal/vfs.NewCrashFS",
	// Golden plan text, which tests compare plans by.
	"colorfulxml/internal/engine.Explain",
	// The paper's complexity and cost measures, which tests check against
	// its tables.
	"colorfulxml/internal/mcxquery.CountPathExpressions",
	"colorfulxml/internal/pathexpr.CountSteps",
	"colorfulxml/internal/serialize.CostUnder",
	"colorfulxml/internal/workload.UpdateComplexity",
	// The paper's shallow/deep schema test (Definition 3.3), which tests
	// hold its Shallow-1 and Deep-1 movie schemas to.
	"(*colorfulxml/internal/schema.XMLSchema).Shallow",
	// The reference lexer the shape fuzz target holds AppendShape to.
	"colorfulxml/internal/mcxquery.LexQuery",
	// The attribute-value index's probe: whether the index stays is open.
	"(*colorfulxml/internal/storage.Store).EqAttr",
}

// stdMethods are the methods the standard library calls through interfaces
// it declares inside function bodies (errors.Is, errors.As, errors.Unwrap).
var stdMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// TestNoNewDeadExports lists the exported functions, and the exported
// methods of exported types, that the module's non-test code declares (the
// nested bench module and testdata aside) and that no non-test code of the
// module or of bench references, and holds the list to testsOnlyExports.
// Three kinds of export are for tests or for callers outside the module, so
// they are left out:
//   - those of a package that no non-test package imports: it serves tests
//     (fixtures, harnesses);
//   - those of a package outside internal/ that some test references by
//     name: the tests stand in for the module's users;
//   - a method that may be called through an interface: one of the loaded
//     packages or their imports declares a method of its name and arity,
//     or it is one of stdMethods.
//
// So the list errs towards missing a dead export, never towards naming a
// live one.
func TestNoNewDeadExports(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := moduleRoot(wd)
	mod, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := Load(filepath.Join(root, "bench"), "./...")
	if err != nil {
		t.Fatal(err)
	}

	used, imported := map[string]bool{}, map[string]bool{}
	ifaceMethods := map[string][]*types.Signature{} // by method name
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				m := it.Method(i)
				ifaceMethods[m.Name()] = append(ifaceMethods[m.Name()], m.Type().(*types.Signature))
			}
		}
	}
	seen := map[*types.Package]bool{}
	var addIfaces func(p *types.Package)
	addIfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			addIface(p.Scope().Lookup(name).Type())
		}
		for _, imp := range p.Imports() {
			addIfaces(imp)
		}
	}
	for _, p := range append(slices.Clone(mod), bench...) {
		addIfaces(p.Types)
		for _, imp := range p.Types.Imports() {
			imported[imp.Path()] = true
		}
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[funcKey(fn)] = true
			}
		}
		for _, tv := range p.Info.Types {
			addIface(tv.Type)
		}
	}
	viaInterface := func(fn *types.Func) bool {
		sig := fn.Type().(*types.Signature)
		for _, m := range ifaceMethods[fn.Name()] {
			if m.Params().Len() == sig.Params().Len() && m.Results().Len() == sig.Results().Len() {
				return true
			}
		}
		return stdMethods[fn.Name()]
	}
	tested := testSelectors(t, root)

	var dead []string
	for _, p := range mod {
		if p.Name == "main" || !imported[p.Path] {
			continue
		}
		internal := strings.Contains(p.Path+"/", "/internal/")
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					if named, ok := rt.(*types.Named); !ok || !named.Obj().Exported() || viaInterface(fn) {
						continue
					}
				}
				if !used[funcKey(fn)] && (internal || !tested[fn.Name()]) {
					dead = append(dead, funcKey(fn))
				}
			}
		}
	}
	slices.Sort(dead)
	for _, name := range dead {
		if !slices.Contains(testsOnlyExports, name) {
			t.Errorf("%s is exported but only tests reference it: delete it, or call it from the code it serves", name)
		}
	}
	for _, name := range testsOnlyExports {
		if !slices.Contains(dead, name) {
			t.Errorf("%s is pinned as tests-only but non-test code references it, or it is gone: drop it from testsOnlyExports", name)
		}
	}
}

// testSelectors returns the names that the _test.go files under root select
// (x.Name), bench included and testdata and hidden directories aside.
func testSelectors(t *testing.T, root string) map[string]bool {
	t.Helper()
	sels := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				sels[sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sels
}
