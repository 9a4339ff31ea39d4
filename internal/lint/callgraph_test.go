package lint_test

import (
	"sort"
	"strings"
	"testing"

	"colorfulxml/internal/lint"
)

// loadCallGraph materializes a module, loads it, and builds its call graph.
func loadCallGraph(t *testing.T, files map[string]string) *lint.CallGraph {
	t.Helper()
	dir := writeModule(t, files)
	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading call-graph fixture: %v", err)
	}
	return lint.BuildCallGraph(pkgs)
}

// lookup finds a node by package-path suffix and Name() notation ("Open",
// "DB.Close"); nil when absent.
func lookup(g *lint.CallGraph, pkgSuffix, name string) *lint.FuncNode {
	for _, n := range g.Nodes {
		if strings.HasSuffix(n.Pkg.Path, pkgSuffix) && n.Name() == name {
			return n
		}
	}
	return nil
}

// calleesNamed flattens a node's resolved callee names, call order:
// "pkgname.Func" / "pkgname.Type.Method".
func calleesNamed(n *lint.FuncNode) []string {
	var out []string
	for _, cs := range n.Calls {
		for _, c := range cs.Callees {
			out = append(out, c.Pkg.Name+"."+c.Name())
		}
	}
	return out
}

func TestCallGraphDirectAndCrossPackage(t *testing.T) {
	g := loadCallGraph(t, map[string]string{
		"go.mod": "module cgfix\n\ngo 1.22\n",
		"a/a.go": "package a\n\nimport \"cgfix/b\"\n\nfunc Caller() { helper(); b.Exported() }\nfunc helper() {}\n",
		"b/b.go": "package b\n\nfunc Exported() { inner() }\nfunc inner() {}\n",
	})
	caller := lookup(g, "cgfix/a", "Caller")
	if caller == nil {
		t.Fatal("Caller not in graph")
	}
	got := calleesNamed(caller)
	want := []string{"a.helper", "b.Exported"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Caller callees = %v, want %v", got, want)
	}
	// Cross-package resolution must link to the node with a body: the edge
	// from b.Exported to b.inner proves the graph is transitively usable.
	if ex := lookup(g, "cgfix/b", "Exported"); ex == nil || len(calleesNamed(ex)) != 1 {
		t.Errorf("Exported -> inner edge missing")
	}
}

func TestCallGraphInterfaceDispatchFanOut(t *testing.T) {
	g := loadCallGraph(t, map[string]string{
		"go.mod": "module cgfix\n\ngo 1.22\n",
		"a/a.go": `package a

type Speaker interface{ Speak() }

type Dog struct{}

func (Dog) Speak() {}

type Cat struct{}

func (Cat) Speak() {}

func Dispatch(s Speaker) { s.Speak() }
`,
	})
	d := lookup(g, "cgfix/a", "Dispatch")
	if d == nil {
		t.Fatal("Dispatch not in graph")
	}
	got := calleesNamed(d)
	sort.Strings(got)
	want := []string{"a.Cat.Speak", "a.Dog.Speak"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("interface dispatch fan-out = %v, want %v", got, want)
	}
}

// TestCallGraphMethodValueRef: a method value referenced outside call
// position is not an edge.
func TestCallGraphMethodValueRef(t *testing.T) {
	g := loadCallGraph(t, map[string]string{
		"go.mod": "module cgfix\n\ngo 1.22\n",
		"a/a.go": `package a

type W struct{}

func (W) run() {}

func Holder(w W) func() {
	f := w.run
	return f
}
`,
	})
	h := lookup(g, "cgfix/a", "Holder")
	if h == nil {
		t.Fatal("Holder not in graph")
	}
	if len(calleesNamed(h)) != 0 {
		t.Errorf("method value must not count as a call: %v", calleesNamed(h))
	}
}

func TestCallGraphGoDeferAndLiteralFlags(t *testing.T) {
	g := loadCallGraph(t, map[string]string{
		"go.mod": "module cgfix\n\ngo 1.22\n",
		"a/a.go": `package a

func helper() {}

func Spawner() {
	go helper()
	defer helper()
	f := func() { helper() }
	f()
}
`,
	})
	sp := lookup(g, "cgfix/a", "Spawner")
	if sp == nil {
		t.Fatal("Spawner not in graph")
	}
	var goSeen, litSeen, plain int
	for _, cs := range sp.Calls {
		for _, c := range cs.Callees {
			if c.Name() != "helper" {
				continue
			}
			switch {
			case cs.Go:
				goSeen++
			case cs.InFuncLit:
				litSeen++
			default:
				plain++
			}
		}
	}
	if goSeen != 1 || litSeen != 1 {
		t.Errorf("call-site flags: go=%d inFuncLit=%d, want 1 each", goSeen, litSeen)
	}
	// A deferred call runs on the declaring function's own flow: it is a
	// plain call site.
	if plain != 1 {
		t.Errorf("plain calls to helper = %d, want 1 (the deferred one)", plain)
	}
}
