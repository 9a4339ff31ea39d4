// Package serialize implements the MCT exchange data model (paper Section
// 5): serializing a multi-colored tree database as plain XML so it can be
// exchanged between applications and reconstructed at the receiver.
//
// It has two halves:
//
//   - the optSerialize algorithm (Figure 9): a dynamic program over the MCT
//     schema that picks, for every element type, the primary color — the
//     hierarchy in which its instances are physically nested — minimizing the
//     expected encoding cost of parent pointers and color annotations
//     (Theorem 5.1);
//
//   - a concrete serializer/deserializer pair: elements are emitted exactly
//     once, nested along their primary color's hierarchy; every other colored
//     edge is encoded with an mct:p-<color> parent reference, explicit
//     per-color child order is recorded in mct:o-<color> lists where nesting
//     does not imply it, and multi-colored elements carry an mct:colors
//     attribute (see serialize.go for the full format).
//
// Per the paper's Section 5.3 simplifying assumptions, primary colors are
// chosen among an element type's real colors, multi-colored element types
// are acyclic, and each type has one production per color.
package serialize

import (
	"fmt"
	"math"
	"sort"

	"colorfulxml/internal/core"
	"colorfulxml/internal/schema"
)

// Plan is the result of optSerialize: for every element type, its color
// choices ranked from best to worst (paper Section 5.3: the ranked list is
// used when an instance lacks the primary color), and the expected cost of
// each (type, color) choice.
type Plan struct {
	// Ranked maps element type to its real colors ordered by increasing
	// cost; Ranked[t][0] is the primary color.
	Ranked map[string][]core.Color
	// Cost maps (type, color) to the expected serialization cost of picking
	// that color as the type's primary color.
	Cost map[TypeColor]float64
}

// TypeColor keys per-(element type, color) tables.
type TypeColor struct {
	Elem  string
	Color core.Color
}

// PrimaryFor returns the best ranked color that the given instance actually
// has, falling back to the instance's first color.
func (p *Plan) PrimaryFor(n *core.Node) core.Color {
	for _, c := range p.Ranked[n.Name()] {
		if n.HasColor(c) {
			return c
		}
	}
	colors := n.Colors()
	if len(colors) > 0 {
		return colors[0]
	}
	return ""
}

// OptSerialize runs the paper's Algorithm optSerialize over an MCT schema
// with statistics, returning the optimal serialization plan.
func OptSerialize(s *schema.Schema) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pl := &planner{s: s, memo: map[TypeColor]float64{}, inProgress: map[TypeColor]bool{}}
	plan := &Plan{Ranked: map[string][]core.Color{}, Cost: map[TypeColor]float64{}}
	for _, elem := range s.ElementTypes() {
		real := s.RealColors(elem)
		type choice struct {
			c    core.Color
			cost float64
		}
		choices := make([]choice, 0, len(real))
		for _, c := range real {
			cost := pl.cost(elem, c)
			choices = append(choices, choice{c: c, cost: cost})
			plan.Cost[TypeColor{elem, c}] = cost
		}
		sort.SliceStable(choices, func(i, j int) bool {
			if choices[i].cost != choices[j].cost {
				return choices[i].cost < choices[j].cost
			}
			return choices[i].c < choices[j].c
		})
		ranked := make([]core.Color, len(choices))
		for i, ch := range choices {
			ranked[i] = ch.c
		}
		plan.Ranked[elem] = ranked
	}
	return plan, nil
}

// CostUnder evaluates the total expected cost of a forced primary-color
// assignment (used by tests to cross-check optimality against exhaustive
// search). Types absent from the assignment choose freely (minimum).
func CostUnder(s *schema.Schema, assignment map[string]core.Color) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	pl := &planner{s: s, memo: map[TypeColor]float64{}, inProgress: map[TypeColor]bool{},
		forced: assignment}
	total := 0.0
	// The database cost is the cost of serializing each hierarchy root.
	for _, c := range s.Colors() {
		root := s.Root(c)
		shade, ok := assignment[root]
		if !ok {
			shade = c
		}
		if shade == c { // each root serialized once, in its own hierarchy
			total += pl.cost(root, c)
		}
	}
	return total, nil
}

// planner memoizes the paper's cost(m, shade) function.
type planner struct {
	s          *schema.Schema
	memo       map[TypeColor]float64
	inProgress map[TypeColor]bool
	forced     map[string]core.Color
}

// cost implements the paper's Figure 9 cost function. Its parameter shade is
// the nest/context color of an m instance: the hierarchy whose serialized
// bytes physically contain the instance.
//
//	cost(m, shade) =
//	  leaf, single color c (per instance; the parent site multiplies by
//	  quant):
//	    0    if c == shade (nested naturally, color implied by context)
//	    3    if m's parent in c's hierarchy also has color shade (color
//	         annotation plus override bookkeeping, the paper's 3x branch)
//	    2    otherwise (color annotation and subtree marker)
//	  otherwise:
//	    2 * (|m.colors| - 1)                — parent pointers (ID/IDREF) for
//	                                          the non-nest colors
//	    + [1 if |m.colors| > 1 or shade not in m.colors]  — color annotation
//	    + sum over colors c of m, over children e of m's production in c:
//	        quant(e, c) * bestChildCost(e, c, shade)
//
// bestChildCost constrains the child's choice by where its parents live
// (the paper's "subject to the constraint that m's choice is shade"): a
// child whose only color is this edge must serialize inside m, in m's
// context; a child with other colors may instead nest under another parent.
// Recursive single-colored types (e.g. nested genres) contribute their
// first-level cost only; the recursion is cut at repeated (type, shade)
// pairs.
func (pl *planner) cost(m string, shade core.Color) float64 {
	key := TypeColor{m, shade}
	if v, ok := pl.memo[key]; ok {
		return v
	}
	if pl.inProgress[key] {
		return 0 // recursion cut for recursive (single-colored) types
	}
	pl.inProgress[key] = true
	defer delete(pl.inProgress, key)

	s := pl.s
	real := s.RealColors(m)
	if len(real) == 1 && s.IsLeaf(m) {
		c := real[0]
		var v float64
		switch {
		case c == shade:
			v = 0
		case pl.parentHasColor(m, c, shade):
			v = 3
		default:
			v = 2
		}
		pl.memo[key] = v
		return v
	}

	v := 2 * float64(max(len(real)-1, 0))
	if len(real) > 1 || !contains(real, shade) {
		v++ // color annotation
	}
	for _, c := range real {
		prod := s.Production(c, m)
		if prod == nil {
			continue
		}
		for _, e := range prod.Children {
			q := s.Quant(e.Elem, c)
			v += q * pl.bestChildCost(e.Elem, c, shade)
		}
	}
	pl.memo[key] = v
	return v
}

// bestChildCost is the paper's findColor with its constraint: child e hangs
// off m along edge color c while m's nest color is shade.
//
//   - A child whose only real color is c has no other parent: it must nest
//     inside m, in m's context -> cost(e, shade).
//   - Otherwise the child may nest here (cost(e, shade) when c is its
//     choice) or under one of its other parents (cost(e, c') for c' != c).
func (pl *planner) bestChildCost(e string, c, parentShade core.Color) float64 {
	real := pl.s.RealColors(e)
	if len(real) == 0 {
		return 0
	}
	if len(real) == 1 && real[0] == c {
		return pl.cost(e, parentShade)
	}
	if pl.forced != nil {
		if fc, ok := pl.forced[e]; ok {
			if fc == c {
				return pl.cost(e, parentShade)
			}
			return pl.cost(e, fc)
		}
	}
	best := math.Inf(1)
	for _, cc := range real {
		v := pl.cost(e, cc)
		if cc == c {
			v = pl.cost(e, parentShade)
		}
		if v < best {
			best = v
		}
	}
	return best
}

// parentHasColor reports whether m's parent type in the hierarchy of its own
// color c also has color shade among its real colors — the paper's "m is a
// child of a node whose color includes shade" branch.
func (pl *planner) parentHasColor(m string, c, shade core.Color) bool {
	parent := pl.s.ParentIn(m, c)
	if parent == "" {
		return false
	}
	return contains(pl.s.RealColors(parent), shade)
}

func contains(cs []core.Color, c core.Color) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// String renders the plan compactly for CLI output.
func (p *Plan) String() string {
	elems := make([]string, 0, len(p.Ranked))
	for e := range p.Ranked {
		elems = append(elems, e)
	}
	sort.Strings(elems)
	out := ""
	for _, e := range elems {
		r := p.Ranked[e]
		if len(r) == 0 {
			continue
		}
		out += fmt.Sprintf("%-16s primary=%-8s", e, r[0])
		for _, c := range r {
			out += fmt.Sprintf(" %s:%.1f", c, p.Cost[TypeColor{e, c}])
		}
		out += "\n"
	}
	return out
}
