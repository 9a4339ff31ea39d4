// Package crashtest is the fault-injection harness of the durable MCT store:
// a deterministic, seeded workload generator whose statements can be applied
// to any DB — the durable database under test (over a budgeted CrashFS) and
// in-memory shadow twins alike. After a simulated crash the recovered store
// is differentially verified against the shadows: it must be isomorphic to
// the state after some prefix of k statements with acked <= k <= attempted,
// where acked counts statements whose mutator returned success before the
// crash and attempted additionally includes the statement that was in flight.
//
// Statements reference elements by unique generated tags, never by NodeID:
// attribute and text nodes receive different identities in a reconstructed
// store, and Isomorphic compares structure and content, not identity. The
// workload deliberately avoids comments, processing instructions and
// never-attached fragments — those have no store representation and are
// documented as not durable.
package crashtest

import (
	"fmt"
	"math/rand"

	"colorfulxml/colorful"
	"colorfulxml/internal/core"
)

// Kind enumerates the statement types of a workload.
type Kind int

const (
	// OpNewChild creates an element (with a text child) under a parent.
	OpNewChild Kind = iota
	// OpSetText replaces an element's text content.
	OpSetText
	// OpSetAttr sets an attribute on an element.
	OpSetAttr
	// OpAdopt gives an element a second hierarchy: next-color constructor
	// plus an append under a parent of that color.
	OpAdopt
	// OpRename changes an element's tag (the workload keeps tags unique, so
	// the new name becomes the element's handle).
	OpRename
	// OpDeleteSubtree deletes an element's subtree in one color.
	OpDeleteSubtree
	// OpInsertBefore attaches a fresh element at a chosen position — a
	// positional change with no incremental WAL form, forcing a synchronous
	// checkpoint.
	OpInsertBefore
	// OpCheckpoint requests an explicit checkpoint (no-op on in-memory
	// shadows).
	OpCheckpoint
	// OpNewSubtree builds an element with one child (with a text child)
	// detached — which the store does not see — and appends it under a parent:
	// a subtree that arrives at once, logged as its leaves in pre-order in one
	// WAL record.
	OpNewSubtree
)

// Stmt is one workload statement. Tag names the element the statement
// targets (or creates); Ref names the parent (OpNewChild, OpAdopt) or the
// following sibling (OpInsertBefore). An empty Ref means the document node.
// Attr doubles as the tag of OpNewSubtree's inner element.
type Stmt struct {
	Kind  Kind
	Tag   string
	Ref   string
	Color colorful.Color
	Text  string
	Attr  string
}

// Workload is a replayable statement sequence over a fixed color set.
type Workload struct {
	Seed   int64
	Colors []colorful.Color
	Stmts  []Stmt
}

// Apply executes one statement against db, maintaining the tag -> node
// handle map (each DB instance has its own node pointers). Statements are
// designed to hold the committed-prefix property: each performs at most one
// store-visible commit, so a crash leaves the database at a statement
// boundary (or a torn tail that recovery drops back to one).
func Apply(db *colorful.DB, nodes map[string]*colorful.Node, s Stmt) error {
	resolve := func(tag string) (*colorful.Node, error) {
		if tag == "" {
			return db.Document(), nil
		}
		n := nodes[tag]
		if n == nil {
			return nil, fmt.Errorf("crashtest: statement references unknown element %q", tag)
		}
		return n, nil
	}
	switch s.Kind {
	case OpNewChild:
		parent, err := resolve(s.Ref)
		if err != nil {
			return err
		}
		n, err := db.AddElementText(parent, s.Tag, s.Color, s.Text)
		if err != nil {
			return err
		}
		nodes[s.Tag] = n
		return nil
	case OpSetText:
		n, err := resolve(s.Tag)
		if err != nil {
			return err
		}
		return db.SetText(n, s.Text)
	case OpSetAttr:
		n, err := resolve(s.Tag)
		if err != nil {
			return err
		}
		_, err = db.SetAttribute(n, s.Attr, s.Text)
		return err
	case OpAdopt:
		parent, err := resolve(s.Ref)
		if err != nil {
			return err
		}
		n, err := resolve(s.Tag)
		if err != nil {
			return err
		}
		return db.Adopt(parent, n, s.Color)
	case OpRename:
		n, err := resolve(s.Tag)
		if err != nil {
			return err
		}
		if err := db.Rename(n, s.Text); err != nil {
			return err
		}
		delete(nodes, s.Tag)
		nodes[s.Text] = n
		return nil
	case OpDeleteSubtree:
		n, err := resolve(s.Tag)
		if err != nil {
			return err
		}
		// Handles of deleted descendants go stale in the map; the generator
		// never references a deleted element again.
		return db.DeleteSubtree(n, s.Color)
	case OpInsertBefore:
		ref, err := resolve(s.Ref)
		if err != nil {
			return err
		}
		parent := core.Parent(ref, s.Color)
		if parent == nil {
			return fmt.Errorf("crashtest: %q has no parent in %q", s.Ref, s.Color)
		}
		n, err := db.NewElement(s.Tag, s.Color)
		if err != nil {
			return err
		}
		if err := db.InsertBefore(parent, n, ref, s.Color); err != nil {
			return err
		}
		nodes[s.Tag] = n
		return nil
	case OpNewSubtree:
		parent, err := resolve(s.Ref)
		if err != nil {
			return err
		}
		top, err := db.NewElement(s.Tag, s.Color)
		if err != nil {
			return err
		}
		inner, err := db.AddElementText(top, s.Attr, s.Color, s.Text)
		if err != nil {
			return err
		}
		if err := db.Append(parent, top, s.Color); err != nil {
			return err
		}
		nodes[s.Tag], nodes[s.Attr] = top, inner
		return nil
	case OpCheckpoint:
		if !db.DurabilityStats().Durable {
			return nil // shadows are in-memory
		}
		return db.Checkpoint()
	}
	return fmt.Errorf("crashtest: unknown statement kind %d", s.Kind)
}

// Replay builds a fresh in-memory shadow holding the state after the first k
// statements of w.
func Replay(w *Workload, k int) *colorful.DB {
	db := colorful.New(w.Colors...)
	nodes := map[string]*colorful.Node{}
	for _, s := range w.Stmts[:k] {
		if err := Apply(db, nodes, s); err != nil {
			panic(fmt.Sprintf("crashtest: replaying statement %+v: %v", s, err))
		}
	}
	return db
}

var words = []string{"amber", "basalt", "cedar", "delta", "ember", "fjord", "gale", "harbor"}

// Generate builds a deterministic workload of n statements. Every statement
// is validated against a planning database as it is generated, so replaying
// any prefix on a fresh database cannot fail.
func Generate(seed int64, n int) *Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Seed: seed, Colors: []colorful.Color{"red", "green", "blue"}}
	plan := colorful.New(w.Colors...)
	nodes := map[string]*colorful.Node{}
	var tags []string
	serial := 0
	newTag := func() string {
		serial++
		return fmt.Sprintf("n%04d", serial)
	}
	text := func() string {
		return fmt.Sprintf("%s-%d", words[rng.Intn(len(words))], rng.Intn(100))
	}
	live := func(tag string) *colorful.Node {
		n := nodes[tag]
		if n == nil || plan.NodeByID(n.ID()) != n {
			return nil
		}
		return n
	}
	// attached reports whether n is reachable from the document in color c —
	// the condition for a node to be in the durable store for that color.
	attached := func(n *colorful.Node, c colorful.Color) bool {
		cur := n
		for {
			p := core.Parent(cur, c)
			if p == nil {
				break
			}
			cur = p
		}
		return cur == plan.Document()
	}
	pickLive := func(pred func(*colorful.Node) bool) (string, bool) {
		var cands []string
		for _, t := range tags {
			if n := live(t); n != nil && pred(n) {
				cands = append(cands, t)
			}
		}
		if len(cands) == 0 {
			return "", false
		}
		return cands[rng.Intn(len(cands))], true
	}

	for len(w.Stmts) < n {
		c := w.Colors[rng.Intn(len(w.Colors))]
		inColor := func(n *colorful.Node) bool { return n.HasColor(c) && attached(n, c) }
		var s Stmt
		switch roll := rng.Intn(100); {
		case roll < 40:
			ref := "" // root under the document
			if p, ok := pickLive(inColor); ok && rng.Intn(4) > 0 {
				ref = p
			}
			s = Stmt{Kind: OpNewChild, Tag: newTag(), Ref: ref, Color: c, Text: text()}
			if roll < 8 {
				s.Kind, s.Attr = OpNewSubtree, newTag()
			}
		case roll < 52:
			t, ok := pickLive(func(*colorful.Node) bool { return true })
			if !ok {
				continue
			}
			s = Stmt{Kind: OpSetText, Tag: t, Text: text()}
		case roll < 62:
			t, ok := pickLive(func(*colorful.Node) bool { return true })
			if !ok {
				continue
			}
			s = Stmt{Kind: OpSetAttr, Tag: t, Attr: words[rng.Intn(len(words))], Text: text()}
		case roll < 72:
			// Adopt a node that does not yet have c under a parent attached
			// in c (possibly the document). Requiring !HasColor(c) rules out
			// cycles: the adoptee has no c-edges a path could close over.
			t, ok := pickLive(func(n *colorful.Node) bool { return !n.HasColor(c) })
			if !ok {
				continue
			}
			ref := ""
			if p, ok := pickLive(inColor); ok && rng.Intn(3) > 0 {
				ref = p
			}
			s = Stmt{Kind: OpAdopt, Tag: t, Ref: ref, Color: c}
		case roll < 79:
			t, ok := pickLive(func(*colorful.Node) bool { return true })
			if !ok {
				continue
			}
			s = Stmt{Kind: OpRename, Tag: t, Text: newTag()}
		case roll < 85:
			t, ok := pickLive(inColor)
			if !ok {
				continue
			}
			s = Stmt{Kind: OpDeleteSubtree, Tag: t, Color: c}
		case roll < 93:
			t, ok := pickLive(inColor)
			if !ok {
				continue
			}
			s = Stmt{Kind: OpInsertBefore, Tag: newTag(), Ref: t, Color: c}
		default:
			s = Stmt{Kind: OpCheckpoint}
		}
		if err := Apply(plan, nodes, s); err != nil {
			panic(fmt.Sprintf("crashtest: generated invalid statement %+v: %v", s, err))
		}
		switch s.Kind {
		case OpNewChild, OpInsertBefore:
			tags = append(tags, s.Tag)
		case OpNewSubtree:
			tags = append(tags, s.Tag, s.Attr)
		case OpRename:
			for i, t := range tags {
				if t == s.Tag {
					tags[i] = s.Text
					break
				}
			}
		}
		w.Stmts = append(w.Stmts, s)
	}
	return w
}
