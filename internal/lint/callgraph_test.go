package lint_test

import (
	"sort"
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

func TestCallGraphDirectAndCrossPackage(t *testing.T) {
	g := loadCallGraph(t, map[string]string{
		"go.mod": "module cgfix\n\ngo 1.22\n",
		"a/a.go": "package a\n\nimport \"cgfix/b\"\n\nfunc Caller() { helper(); b.Exported() }\nfunc helper() {}\n",
		"b/b.go": "package b\n\nfunc Exported() { inner() }\nfunc inner() {}\n",
	})
	caller := g.Lookup("cgfix/a", "Caller")
	if caller == nil {
		t.Fatal("Caller not in graph")
	}
	got := caller.CalleesNamed()
	want := []string{"a.helper", "b.Exported"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Caller callees = %v, want %v", got, want)
	}
	// Cross-package resolution must link to the node with a body: the edge
	// from b.Exported to b.inner proves the graph is transitively usable.
	if ex := g.Lookup("cgfix/b", "Exported"); ex == nil || len(ex.CalleesNamed()) != 1 {
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
	d := g.Lookup("cgfix/a", "Dispatch")
	if d == nil {
		t.Fatal("Dispatch not in graph")
	}
	got := d.CalleesNamed()
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
	h := g.Lookup("cgfix/a", "Holder")
	if h == nil {
		t.Fatal("Holder not in graph")
	}
	if len(h.CalleesNamed()) != 0 {
		t.Errorf("method value must not count as a call: %v", h.CalleesNamed())
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
	sp := g.Lookup("cgfix/a", "Spawner")
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
