package core

// This file implements the logical change log that makes incremental
// maintenance of derived store snapshots possible. Every mutation of the
// database appends a Change describing its store-visible effect; the serving
// layer (colorful.DB) drains the log and replays it against a copy-on-write
// clone of the previous storage.Store snapshot instead of rebuilding from
// scratch. Every change has an incremental form: the store only appends
// children, so a positional insert is logged as the displaced siblings leaving
// and arriving again after the new child, and an element rename as its record
// rewritten under the new tag.
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
	// ChangeAttrs: element Elem's attribute list became Attrs and, unless
	// Tag is empty, its tag became Tag (an element rename).
	ChangeAttrs
	// ChangeAddDatabaseColor: the database gained color Color.
	ChangeAddDatabaseColor
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

// changeLog has no lock of its own: every record, Mark, ChangesSince and
// DrainChanges runs under the serving layer's writer lock, like every other
// Database mutator. The serving layer bounds its length.
type changeLog struct {
	entries []Change
	drains  uint64 // bumped by DrainChanges, invalidating outstanding marks
}

func (db *Database) record(ch Change) {
	db.clog.entries = append(db.clog.entries, ch)
}

// DrainChanges returns and clears the change log accumulated since the last
// drain (or since construction).
func (db *Database) DrainChanges() []Change {
	changes := db.clog.entries
	db.clog.entries = nil
	db.clog.drains++
	return changes
}

// DropChanges is DrainChanges for a caller that does not read the changes: the
// log keeps its storage for the ones that follow.
func (db *Database) DropChanges() {
	clear(db.clog.entries)
	db.clog.entries = db.clog.entries[:0]
	db.clog.drains++
}

// LoggedChanges is the number of changes recorded since the last drain.
func (db *Database) LoggedChanges() int { return len(db.clog.entries) }

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

// ChangesSince returns the entries recorded after the mark: the log's own
// tail, valid until the next mutation or drain. ok is false when the mark is
// no longer valid: the log was drained in between, so the entries since the
// mark are gone.
func (db *Database) ChangesSince(m ChangeMark) (changes []Change, ok bool) {
	if db.clog.drains != m.drains || m.n > len(db.clog.entries) {
		return nil, false
	}
	return db.clog.entries[m.n:], true
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

// changeParent encodes a parent node for the log (0 = document).
func (db *Database) changeParent(parent *Node) NodeID {
	if parent == db.doc {
		return 0
	}
	return parent.ID()
}

// AttrPairs captures an element's attributes as (name, value) pairs, in the
// order of Attributes: the order the store's element records list them in.
func AttrPairs(elem *Node) [][2]string {
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
// in color c, at index at of parent's children. The store only appends, so
// the element siblings after the child leave first and arrive again after
// it: a positional insert costs what it displaces.
func (db *Database) logAttach(parent, child *Node, c Color, at int) {
	if child.Kind() != KindElement {
		return // comments and PIs are not materialized in the store
	}
	if !db.reachable(parent, c) {
		return // still a detached fragment; no store effect
	}
	kids := parent.link(c).children
	for _, s := range kids[at+1:] {
		if s.Kind() == KindElement {
			db.record(Change{Kind: ChangeDeleteSubtree, Elem: s.ID(), Color: c})
		}
	}
	for _, s := range kids[at:] { // the child, then the siblings it displaced
		if s.Kind() == KindElement {
			db.logArrival(parent, s, c)
		}
	}
}

// logArrival records child's subtree in color c arriving as the last child of
// parent: its elements in pre-order, each at that moment a leaf and the last
// child of its parent — so a subtree that lands at once is the same log as
// one built in place, and the incremental ops only ever insert leaves.
func (db *Database) logArrival(parent, child *Node, c Color) {
	ch := Change{Kind: ChangeInsertLeaf, Elem: child.ID(),
		Parent: db.changeParent(parent), Color: c,
		Tag: child.name, Content: Text(child), Attrs: AttrPairs(child)}
	for _, oc := range child.Colors() {
		if oc != c && db.reachable(child, oc) {
			// Already stored under another color: this attach adds one
			// structural node.
			ch = Change{Kind: ChangeAddColor, Elem: child.ID(), Parent: ch.Parent, Color: c}
			break
		}
	}
	db.record(ch)
	for _, g := range child.link(c).children {
		if g.Kind() == KindElement {
			db.logArrival(child, g, c)
		}
	}
}

// logContent records that elem's direct text content changed.
func (db *Database) logContent(elem *Node) {
	if db.stored(elem) {
		db.record(Change{Kind: ChangeContent, Elem: elem.ID(), Content: Text(elem)})
	}
}

// logAttrs records that elem's attribute list changed and, unless tag is
// empty, that its tag became tag.
func (db *Database) logAttrs(elem *Node, tag string) {
	if db.stored(elem) {
		db.record(Change{Kind: ChangeAttrs, Elem: elem.ID(), Tag: tag, Attrs: AttrPairs(elem)})
	}
}

// stored reports whether elem is in some rooted colored tree: the store has
// a record of it. An element of a detached fragment gets its record, with
// its content and attributes as they are then, when it is attached.
func (db *Database) stored(elem *Node) bool {
	for i := range elem.links {
		if db.reachable(elem, elem.links[i].color) {
			return true
		}
	}
	return false
}
