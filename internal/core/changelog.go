package core

// This file implements the logical change log that makes incremental
// maintenance of derived store snapshots possible. Every mutation of the
// database appends a Change describing its store-visible effect; the serving
// layer (colorful.DB) drains the log and replays it against a copy-on-write
// clone of the previous storage.Store snapshot instead of rebuilding from
// scratch. Changes with no incremental store operation (positional inserts,
// renames) are recorded as ChangeComplex, telling the maintainer to fall back
// to a full load.
//
// Mutations of detached fragments are store-invisible and record nothing:
// the store materializes exactly the rooted colored trees, so a change only
// matters once it happens inside (or moves nodes into/out of) a rooted tree.

// ChangeKind classifies one logical change to the rooted colored trees.
type ChangeKind uint8

const (
	// ChangeContent: element Elem's direct text content became Content.
	ChangeContent ChangeKind = iota
	// ChangeInsertLeaf: element Elem (not previously stored) was attached
	// as the last child of Parent in Color, with no element children in
	// Color. Tag, Content and Attrs carry its state at attach time.
	ChangeInsertLeaf
	// ChangeAddColor: already-stored element Elem was attached as the last
	// child of Parent in Color (the next-color constructor's attach).
	ChangeAddColor
	// ChangeDeleteSubtree: element Elem's subtree in Color left the rooted
	// tree (delete, remove-color or detach).
	ChangeDeleteSubtree
	// ChangeAttrs: element Elem's attribute list became Attrs.
	ChangeAttrs
	// ChangeAddDatabaseColor: the database gained color Color.
	ChangeAddDatabaseColor
	// ChangeComplex: a structural change with no incremental counterpart;
	// the snapshot maintainer must rebuild.
	ChangeComplex
)

// Change is one entry of the logical change log. Parent is 0 when the
// parent is the document node (node IDs start at 1).
type Change struct {
	Kind    ChangeKind
	Elem    NodeID
	Parent  NodeID
	Color   Color
	Tag     string
	Content string
	Attrs   [][2]string
}

// maxChangeLog bounds the change log; once exceeded the log is dropped and
// DrainChanges reports overflow, forcing consumers to rebuild. This keeps
// databases whose log is never drained from accumulating memory.
const maxChangeLog = 1 << 14

// changeLog has no lock of its own: every record, Mark, ChangesSince and
// DrainChanges runs under the serving layer's writer lock, like every other
// Database mutator.
type changeLog struct {
	entries  []Change
	overflow bool
	drains   uint64 // bumped by DrainChanges, invalidating outstanding marks
}

func (db *Database) record(ch Change) {
	if !db.clog.overflow {
		if len(db.clog.entries) >= maxChangeLog {
			db.clog.overflow = true
			db.clog.entries = nil
		} else {
			db.clog.entries = append(db.clog.entries, ch)
		}
	}
}

// DrainChanges returns and clears the change log accumulated since the last
// drain (or since construction). overflow reports that the log was dropped
// because it grew past its bound; the drained prefix is then incomplete and
// consumers must treat the database as arbitrarily changed.
func (db *Database) DrainChanges() (changes []Change, overflow bool) {
	changes, overflow = db.clog.entries, db.clog.overflow
	db.clog.entries, db.clog.overflow = nil, false
	db.clog.drains++
	return changes, overflow
}

// ChangeMark is a position in the change log, taken before a mutation so the
// mutation's own entries can be read back afterwards (see ChangesSince).
type ChangeMark struct {
	drains uint64
	n      int
}

// Mark returns the current change-log position. The caller must hold the
// database's writer lock across Mark, the mutation, and ChangesSince — a
// concurrent DrainChanges invalidates the mark.
func (db *Database) Mark() ChangeMark {
	return ChangeMark{drains: db.clog.drains, n: len(db.clog.entries)}
}

// ChangesSince returns a copy of the entries recorded after the mark. ok is
// false when the mark is no longer valid: the log was drained or overflowed
// in between, so the caller cannot know the exact entry set and must treat
// the database as arbitrarily changed (the durable layer responds with a
// full checkpoint).
func (db *Database) ChangesSince(m ChangeMark) (changes []Change, ok bool) {
	if db.clog.drains != m.drains || db.clog.overflow || m.n > len(db.clog.entries) {
		return nil, false
	}
	tail := db.clog.entries[m.n:]
	if len(tail) == 0 {
		return nil, true
	}
	out := make([]Change, len(tail))
	copy(out, tail)
	return out, true
}

// reachable reports whether n belongs to the rooted colored tree c (i.e. its
// parent chain in c ends at the document node). Detached fragments are not
// reachable and have no store representation.
func (db *Database) reachable(n *Node, c Color) bool {
	for cur := n; cur != nil; {
		if cur == db.doc {
			return true
		}
		l := cur.link(c)
		if l == nil {
			return false
		}
		cur = l.parent
	}
	return false
}

// reachableAny reports whether n (or its owner, for owned nodes) is part of
// any rooted colored tree.
func (db *Database) reachableAny(n *Node) bool {
	t := n
	if t.owner != nil {
		t = t.owner
	}
	for _, c := range t.Colors() {
		if db.reachable(t, c) {
			return true
		}
	}
	return false
}

// changeParent encodes a parent node for the log (0 = document).
func (db *Database) changeParent(parent *Node) NodeID {
	if parent == db.doc {
		return 0
	}
	return parent.id
}

// attrSnapshot captures an element's attributes as (name, value) pairs.
func attrSnapshot(elem *Node) [][2]string {
	attrs := elem.Attributes()
	if len(attrs) == 0 {
		return nil
	}
	out := make([][2]string, len(attrs))
	for i, a := range attrs {
		out[i] = [2]string{a.name, a.value}
	}
	return out
}

// logAttach records the store-visible effect of attaching child under parent
// in color c. atEnd reports whether the child became the last child.
func (db *Database) logAttach(parent, child *Node, c Color, atEnd bool) {
	if child.kind != KindElement {
		return // comments and PIs are not materialized in the store
	}
	if !db.reachable(parent, c) {
		return // still a detached fragment; no store effect
	}
	if !atEnd {
		db.record(Change{Kind: ChangeComplex})
		return
	}
	db.logArrival(parent, child, c)
}

// logArrival records child's subtree in color c arriving as the last child of
// parent: its elements in pre-order, each at that moment a leaf and the last
// child of its parent — so a subtree that lands at once is the same log as
// one built in place, and the incremental ops only ever insert leaves.
func (db *Database) logArrival(parent, child *Node, c Color) {
	ch := Change{Kind: ChangeInsertLeaf, Elem: child.id,
		Parent: db.changeParent(parent), Color: c,
		Tag: child.name, Content: Text(child), Attrs: attrSnapshot(child)}
	for _, oc := range child.Colors() {
		if oc != c && db.reachable(child, oc) {
			// Already stored under another color: this attach adds one
			// structural node.
			ch = Change{Kind: ChangeAddColor, Elem: child.id, Parent: ch.Parent, Color: c}
			break
		}
	}
	db.record(ch)
	for _, g := range child.link(c).children {
		if g.kind == KindElement {
			db.logArrival(child, g, c)
		}
	}
}

// logContent records that elem's direct text content changed.
func (db *Database) logContent(elem *Node) {
	db.record(Change{Kind: ChangeContent, Elem: elem.id, Content: Text(elem)})
}

// logAttrs records that elem's attribute list changed.
func (db *Database) logAttrs(elem *Node) {
	db.record(Change{Kind: ChangeAttrs, Elem: elem.id, Attrs: attrSnapshot(elem)})
}
