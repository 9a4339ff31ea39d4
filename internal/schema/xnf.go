package schema

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the shallow/deep schema characterization of the
// paper's Definition 3.3, built on XNF (Arenas & Libkin, "A Normal Form for
// XML Documents", PODS 2002):
//
//	A schema (D, F) — a DTD plus functional dependencies over DTD paths —
//	is SHALLOW iff for every non-trivial FD S -> p.@attr or S -> p.content
//	implied by (D, F), the FD S -> p is also implied. Otherwise it is DEEP.
//
// FD implication over XML documents in full generality requires the
// Arenas–Libkin chase; this implementation uses the standard relational
// attribute-closure algorithm over path sets, which is sound for the
// acyclic, single-production DTDs used throughout this repository (each DTD
// path denotes one "column" and the given FDs are interpreted relationally).

// Path is a DTD path from the root: element labels separated by '/', with an
// optional trailing "@attr" or "content()" component, e.g.
// "genres/genre/movie/@id" or "genres/genre/movie/name/content()".
type Path string

// Parent returns the path with its last component removed; for value paths
// (@attr, content()) this is the element path the value hangs off.
func (p Path) Parent() (Path, bool) {
	i := strings.LastIndexByte(string(p), '/')
	if i < 0 {
		return "", false
	}
	return p[:i], true
}

// IsValuePath reports whether the path addresses an attribute or content.
func (p Path) IsValuePath() bool {
	return strings.Contains(string(p), "@") || strings.HasSuffix(string(p), "content()")
}

// elem returns the element name the path ends in (its last label).
func (p Path) elem() string {
	s := string(p)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// FD is a functional dependency S -> R over DTD paths.
type FD struct {
	LHS []Path
	RHS Path
}

func (f FD) String() string {
	parts := make([]string, len(f.LHS))
	for i, p := range f.LHS {
		parts[i] = string(p)
	}
	sort.Strings(parts)
	return fmt.Sprintf("{%s} -> %s", strings.Join(parts, ", "), f.RHS)
}

// Trivial reports whether the FD is trivial (RHS in LHS).
func (f FD) Trivial() bool {
	for _, p := range f.LHS {
		if p == f.RHS {
			return true
		}
	}
	return false
}

// DTD is a single-hierarchy document type: element productions rooted at
// Root, with per-element attributes.
type DTD struct {
	Root  string
	Elems map[string]DTDElem
}

// DTDElem declares one element type.
type DTDElem struct {
	Children []Child
	Attrs    []string
	// HasContent marks elements with text content.
	HasContent bool
}

// XMLSchema is the (D, F) pair of Definition 3.3.
type XMLSchema struct {
	DTD *DTD
	FDs []FD
}

// closure computes the closure of a path set under the schema's FDs plus
// the structural (tree) dependencies the DTD guarantees:
//
//   - a determined node determines its ancestor nodes (a node identifies the
//     unique root-to-node path above it);
//   - a determined node determines its attribute values and text content
//     (each node carries at most one value per attribute);
//   - a determined node determines its at-most-once children (quantifier 1
//     or ?).
//
// A determined VALUE (@attr, content()) pins no node by itself — that is
// exactly the difference the paper's deep trees exploit.
func (s *XMLSchema) closure(start []Path) map[Path]bool {
	got := map[Path]bool{}
	var add func(p Path)
	add = func(p Path) {
		if got[p] {
			return
		}
		got[p] = true
		if p.IsValuePath() {
			return
		}
		if parent, ok := p.Parent(); ok {
			add(parent)
		}
		decl, ok := s.DTD.Elems[p.elem()]
		if !ok {
			return
		}
		for _, a := range decl.Attrs {
			add(p + Path("/@"+a))
		}
		if decl.HasContent {
			add(p + "/content()")
		}
		for _, ch := range decl.Children {
			if ch.Quant == One || ch.Quant == Optional {
				add(p + Path("/"+ch.Elem))
			}
		}
	}
	for _, p := range start {
		add(p)
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range s.FDs {
			if got[fd.RHS] {
				continue
			}
			all := true
			for _, l := range fd.LHS {
				if !got[l] {
					all = false
					break
				}
			}
			if all {
				add(fd.RHS)
				changed = true
			}
		}
	}
	return got
}

// Implies reports whether (D, F) implies the FD under the relational
// interpretation described above.
func (s *XMLSchema) Implies(fd FD) bool {
	return s.closure(fd.LHS)[fd.RHS]
}

// Shallow reports whether the schema is shallow per Definition 3.3: every
// non-trivial implied FD S -> p.@attr / S -> p.content has S -> p implied as
// well. The check examines the declared FDs and their pairwise
// transitivity consequences (sufficient for the acyclic schemas used here).
// The returned witness is an FD violating the condition when the schema is
// deep.
func (s *XMLSchema) Shallow() (bool, *FD) {
	for _, fd := range s.candidates() {
		if fd.Trivial() || !fd.RHS.IsValuePath() {
			continue
		}
		if !s.Implies(fd) {
			continue
		}
		parent, ok := fd.RHS.Parent()
		if !ok {
			continue
		}
		if !s.closure(fd.LHS)[parent] {
			v := fd
			return false, &v
		}
	}
	return true, nil
}

// candidates enumerates FDs to check: the declared ones plus single-step
// transitivity compositions (LHS of one FD reached via another's RHS).
func (s *XMLSchema) candidates() []FD {
	out := append([]FD(nil), s.FDs...)
	for _, a := range s.FDs {
		for _, b := range s.FDs {
			// If b's LHS is {a.RHS}, then a.LHS -> b.RHS.
			if len(b.LHS) == 1 && b.LHS[0] == a.RHS {
				out = append(out, FD{LHS: a.LHS, RHS: b.RHS})
			}
		}
	}
	return out
}
