package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"colorfulxml/internal/cowarray"
)

// Database is an MCT database: a node set, a color set, and one colored tree
// per color, all rooted at a single shared document node (Definition 3.2).
//
// A Database is not safe for concurrent mutation; concurrent readers are safe
// while no mutation is in progress (callers such as colorful.DB enforce this
// with a reader/writer lock). Generation, the change log and the local-order
// cache are internally synchronized so that readers may consult them without
// extra coordination.
type Database struct {
	doc    *Node
	colors map[Color]bool
	nextID NodeID
	// byID is the identity table. Ids are handed out densely from 1, so it is
	// an array indexed by id — and a copy-on-write one, so that a store
	// snapshot can keep the table of its generation (SnapshotNodes).
	byID *cowarray.Array[*Node]

	// order caches per-color local document order; invalidated on mutation.
	// Guarded by orderMu: the cache is lazily filled on read paths, which
	// may run concurrently.
	orderMu sync.Mutex
	order   map[Color]map[NodeID]int

	gen uint64 // mutation generation (atomic), bumped on every structural change

	// clog accumulates the store-visible effects of mutations for
	// incremental snapshot maintenance (see changelog.go).
	clog changeLog
}

// NewDatabase creates an empty MCT database whose document node carries all
// the given colors. Further colors can be added later with AddDatabaseColor.
func NewDatabase(colors ...Color) *Database {
	db := &Database{
		colors: make(map[Color]bool, len(colors)),
		byID:   &cowarray.Array[*Node]{},
		order:  make(map[Color]map[NodeID]int),
	}
	db.doc = db.newNode(KindDocument)
	for _, c := range colors {
		db.AddDatabaseColor(c)
	}
	return db
}

// Document returns the shared document node, the root of every colored tree.
func (db *Database) Document() *Node { return db.doc }

// Colors returns the database's color set in sorted order.
func (db *Database) Colors() []Color {
	out := make([]Color, 0, len(db.colors))
	for c := range db.colors {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasColor reports whether c is one of the database's colors.
func (db *Database) HasColor(c Color) bool { return db.colors[c] }

// AddDatabaseColor introduces a new color: the document node becomes the root
// of a new, initially empty colored tree of that color.
func (db *Database) AddDatabaseColor(c Color) {
	if db.colors[c] {
		return
	}
	db.colors[c] = true
	db.doc.ensureLink(c)
	db.invalidate()
	db.record(Change{Kind: ChangeAddDatabaseColor, Color: c})
}

// NodeByID returns the node with the given identity, or nil.
func (db *Database) NodeByID(id NodeID) *Node {
	n, _ := db.byID.Get(uint64(id))
	return n
}

// NumNodes returns the total number of nodes of all kinds in the database.
func (db *Database) NumNodes() int { return db.byID.Len() }

// SnapshotNodes returns the identity table as it is now, in O(1): a frozen
// copy-on-write sibling that later mutations of the database never reach. A
// node deleted afterwards stays resolvable through it, as the object it was.
// The caller must exclude concurrent mutation and concurrent SnapshotNodes
// calls (colorful.DB publishes under its maintenance discipline).
func (db *Database) SnapshotNodes() *cowarray.Array[*Node] { return db.byID.Clone() }

// Generation returns a counter that increases on every mutation of the
// database. Callers that derive secondary structures (such as a physical
// store loaded from the database) can cache them keyed on the generation and
// rebuild only when it changes. It is safe to call concurrently with
// mutations.
func (db *Database) Generation() uint64 { return atomic.LoadUint64(&db.gen) }

func (db *Database) newNode(kind Kind) *Node {
	db.nextID++
	n := &Node{id: db.nextID, kind: kind, db: db}
	db.byID.Set(uint64(n.id), n)
	return n
}

// maxRestoreID bounds the ids RestoreElement accepts: the identity table is
// an array indexed by id, and a recovered id must not be allowed to size it
// (the physical store applies the same bound to what it loads).
const maxRestoreID = NodeID(1) << 32

// RestoreElement creates a detached, colorless element node with a fixed
// identity. It is the recovery constructor: rebuilding a database from a
// recovered physical store must preserve element identities, because the
// write-ahead log (and the serving layer's snapshot result mapping) address
// elements by NodeID. The id must be unused; colors are attached afterwards
// with AddColor/Append exactly as the store's structural nodes dictate.
func (db *Database) RestoreElement(id NodeID, name string) (*Node, error) {
	if id == 0 {
		return nil, fmt.Errorf("core: RestoreElement: zero id")
	}
	if id >= maxRestoreID {
		return nil, fmt.Errorf("core: RestoreElement: id %d is beyond the identity table's range", id)
	}
	if _, taken := db.byID.Get(uint64(id)); taken {
		return nil, fmt.Errorf("core: RestoreElement: id %d already in use", id)
	}
	n := &Node{id: id, kind: KindElement, name: name, db: db}
	db.byID.Set(uint64(id), n)
	if id > db.nextID {
		db.nextID = id
	}
	db.invalidate()
	return n, nil
}

func (db *Database) invalidate() {
	atomic.AddUint64(&db.gen, 1)
	db.orderMu.Lock()
	for c := range db.order {
		delete(db.order, c)
	}
	db.orderMu.Unlock()
}

// --- First-color constructors (Section 3.3) ---------------------------------

// NewElement is the first-color element constructor: it creates a new element
// node with unique identity and the single color c. The node is initially
// detached; attach it with Append or InsertBefore.
func (db *Database) NewElement(name string, c Color) (*Node, error) {
	if err := db.checkColor(c); err != nil {
		return nil, err
	}
	n := db.newNode(KindElement)
	n.name = name
	n.ensureLink(c)
	db.invalidate()
	return n, nil
}

// MustElement is NewElement that panics on error, for literal construction in
// tests and examples.
func (db *Database) MustElement(name string, c Color) *Node {
	n, err := db.NewElement(name, c)
	if err != nil {
		panic(err)
	}
	return n
}

// NewComment creates a comment node with the single color c, detached.
func (db *Database) NewComment(value string, c Color) (*Node, error) {
	if err := db.checkColor(c); err != nil {
		return nil, err
	}
	n := db.newNode(KindComment)
	n.value = value
	n.ensureLink(c)
	db.invalidate()
	return n, nil
}

// NewPI creates a processing-instruction node with the single color c,
// detached.
func (db *Database) NewPI(target, value string, c Color) (*Node, error) {
	if err := db.checkColor(c); err != nil {
		return nil, err
	}
	n := db.newNode(KindPI)
	n.name = target
	n.value = value
	n.ensureLink(c)
	db.invalidate()
	return n, nil
}

// SetAttribute creates (or replaces the value of) an attribute node on elem.
// Attribute nodes carry all colors of their owner element automatically
// (Definition 3.2(iii)). It returns the attribute node.
func (db *Database) SetAttribute(elem *Node, name, value string) (*Node, error) {
	if elem == nil || elem.kind != KindElement {
		return nil, fmt.Errorf("core: SetAttribute on %v: %w", elem, ErrNotElement)
	}
	if a := elem.Attribute(name); a != nil {
		a.value = value
		db.invalidate()
		db.logAttrs(elem)
		return a, nil
	}
	a := db.newNode(KindAttribute)
	a.name = name
	a.value = value
	a.owner = elem
	x := elem.more()
	x.attrs = append(x.attrs, a)
	db.invalidate()
	db.logAttrs(elem)
	return a, nil
}

// Rename changes the name of an element, attribute or PI node. Names of
// other kinds cannot be set.
func (db *Database) Rename(n *Node, name string) error {
	switch n.kind {
	case KindElement, KindAttribute:
		n.name = name
		db.invalidate()
		if db.reachableAny(n) {
			// Renames re-key the tag or attribute index; there is no
			// incremental store op for that.
			db.record(Change{Kind: ChangeComplex})
		}
		return nil
	case KindPI:
		n.name = name
		db.invalidate() // PIs are not materialized in the store
		return nil
	default:
		return fmt.Errorf("core: Rename on %v: %w", n, ErrNotElement)
	}
}

// RemoveAttribute removes the named attribute from elem, if present.
func (db *Database) RemoveAttribute(elem *Node, name string) {
	for i, a := range elem.Attributes() {
		if a.name == name {
			elem.extra.attrs = append(elem.extra.attrs[:i], elem.extra.attrs[i+1:]...)
			db.byID.Delete(uint64(a.id))
			db.invalidate()
			db.logAttrs(elem)
			return
		}
	}
}

// AppendText creates a text node owned by elem and appends it at the end of
// elem's children in every color elem has. Per Definition 3.2(iii), text
// nodes carry all the colors of their owner element.
func (db *Database) AppendText(elem *Node, value string) (*Node, error) {
	if elem == nil || elem.kind != KindElement {
		return nil, fmt.Errorf("core: AppendText on %v: %w", elem, ErrNotElement)
	}
	t := db.newNode(KindText)
	t.value = value
	t.owner = elem
	for i := range elem.links {
		l := &elem.links[i]
		l.children = append(l.children, t)
	}
	db.invalidate()
	db.logContent(elem)
	return t, nil
}

// --- Next-color constructor (Section 3.3) -----------------------------------

// AddColor is the next-color constructor: it adds color c to an existing
// element, comment or PI node, making the node available for attachment in
// the colored tree T_c. The node's text children are carried into the new
// color automatically (they must have all their owner's colors); element
// children are not, since per-color edges are independently specified.
func (db *Database) AddColor(n *Node, c Color) error {
	if err := db.checkColor(c); err != nil {
		return err
	}
	switch n.kind {
	case KindElement, KindComment, KindPI, KindDocument:
	default:
		return fmt.Errorf("core: AddColor on %v: %w", n, ErrOwnedNode)
	}
	if n.HasColor(c) {
		return fmt.Errorf("core: AddColor(%v, %q): %w", n, c, ErrAlreadyColored)
	}
	l := n.ensureLink(c)
	// Carry text children into the new color, in first-color order.
	if n.kind == KindElement {
		for _, child := range n.textChildren() {
			l.children = append(l.children, child)
		}
	}
	db.invalidate()
	return nil
}

// textChildren returns n's owned text children in the order of n's first
// (sorted-lowest) color, or any color if ordering is irrelevant.
func (n *Node) textChildren() []*Node {
	var out []*Node
	seen := map[NodeID]bool{}
	for _, l := range n.links {
		for _, ch := range l.children {
			if ch.kind == KindText && !seen[ch.id] {
				seen[ch.id] = true
				out = append(out, ch)
			}
		}
	}
	return out
}

// RemoveColor removes color c from node n, detaching it (and recursively its
// subtree edges) from the colored tree T_c. The node must have at least one
// other color remaining, otherwise it becomes garbage; use Delete for that.
func (db *Database) RemoveColor(n *Node, c Color) error {
	l := n.link(c)
	if l == nil {
		return fmt.Errorf("core: RemoveColor(%v, %q): %w", n, c, ErrColorIncompatible)
	}
	if n.kind == KindDocument {
		return fmt.Errorf("core: cannot remove color from the document node")
	}
	wasReachable := n.kind == KindElement && db.reachable(n, c)
	// Detach from parent in c.
	if l.parent != nil {
		db.detach(n, c)
	}
	// Children in c lose their parent edge (they stay colored c, becoming
	// dangling; Validate will flag them — callers normally re-attach or
	// recursively remove).
	for _, ch := range l.children {
		if cl := ch.link(c); cl != nil {
			cl.parent = nil
		}
	}
	n.dropLink(c)
	db.invalidate()
	if wasReachable {
		// The store drops the whole stored subtree of n in c; descendants
		// that kept color c are now detached fragments, which the store
		// does not materialize either, so the effects agree.
		db.record(Change{Kind: ChangeDeleteSubtree, Elem: n.id, Color: c})
	}
	return nil
}

// --- Tree mutation -----------------------------------------------------------

// Append attaches child as the last child of parent in the colored tree c.
// Both nodes must have color c; the child must not already have a parent in
// c, and the attachment must not create a cycle.
func (db *Database) Append(parent, child *Node, c Color) error {
	return db.insert(parent, child, c, -1)
}

// InsertBefore attaches child into parent's children in color c, immediately
// before the existing child ref. If ref is nil it behaves like Append.
func (db *Database) InsertBefore(parent, child, ref *Node, c Color) error {
	if ref == nil {
		return db.insert(parent, child, c, -1)
	}
	l := parent.link(c)
	if l == nil {
		return fmt.Errorf("core: InsertBefore: parent %v: %w", parent, ErrColorIncompatible)
	}
	for i, ch := range l.children {
		if ch == ref {
			return db.insert(parent, child, c, i)
		}
	}
	return fmt.Errorf("core: InsertBefore: %v is not a child of %v in color %q", ref, parent, c)
}

func (db *Database) insert(parent, child *Node, c Color, at int) error {
	if parent == nil || child == nil {
		return fmt.Errorf("core: insert: nil node")
	}
	if parent.kind != KindElement && parent.kind != KindDocument {
		return fmt.Errorf("core: insert under %v: %w", parent, ErrNotElement)
	}
	pl := parent.link(c)
	if pl == nil {
		return fmt.Errorf("core: insert: parent %v lacks color %q: %w", parent, c, ErrColorIncompatible)
	}
	switch child.kind {
	case KindElement, KindComment, KindPI:
	case KindText:
		return fmt.Errorf("core: insert text node: use AppendText (text nodes are owned): %w", ErrOwnedNode)
	default:
		return fmt.Errorf("core: cannot attach %v as a child", child)
	}
	cl := child.link(c)
	if cl == nil {
		return fmt.Errorf("core: insert: child %v lacks color %q: %w", child, c, ErrColorIncompatible)
	}
	if cl.parent != nil {
		return fmt.Errorf("core: insert: %v already has a parent in color %q: %w", child, c, ErrAlreadyAttached)
	}
	// Cycle check: parent must not be a descendant of child in c.
	for a := parent; a != nil; {
		if a == child {
			return fmt.Errorf("core: insert %v under %v: %w", child, parent, ErrCycle)
		}
		al := a.link(c)
		if al == nil {
			break
		}
		a = al.parent
	}
	atEnd := at < 0 || at >= len(pl.children)
	if atEnd {
		pl.children = append(pl.children, child)
	} else {
		pl.children = append(pl.children, nil)
		copy(pl.children[at+1:], pl.children[at:])
		pl.children[at] = child
	}
	cl.parent = parent
	db.invalidate()
	db.logAttach(parent, child, c, atEnd)
	return nil
}

// detach removes child from its parent's child list in color c.
func (db *Database) detach(child *Node, c Color) {
	cl := child.link(c)
	if cl == nil || cl.parent == nil {
		return
	}
	pl := cl.parent.link(c)
	if pl != nil {
		for i, ch := range pl.children {
			if ch == child {
				pl.children = append(pl.children[:i], pl.children[i+1:]...)
				break
			}
		}
	}
	cl.parent = nil
	db.invalidate()
}

// Detach removes child from its parent in color c, leaving the child (and its
// subtree in c) as a detached colored fragment.
func (db *Database) Detach(child *Node, c Color) error {
	cl := child.link(c)
	if cl == nil {
		return fmt.Errorf("core: Detach(%v, %q): %w", child, c, ErrColorIncompatible)
	}
	if cl.parent == nil {
		return fmt.Errorf("core: Detach(%v, %q): %w", child, c, ErrNotAttached)
	}
	wasReachable := child.kind == KindElement && db.reachable(child, c)
	db.detach(child, c)
	if wasReachable {
		db.record(Change{Kind: ChangeDeleteSubtree, Elem: child.id, Color: c})
	}
	return nil
}

// Delete removes a node from the database entirely: it is detached from every
// colored tree, its subtree edges in each color are severed (children become
// detached fragments in that color), and owned attribute and text nodes are
// deleted with it.
func (db *Database) Delete(n *Node) error {
	if n == db.doc {
		return fmt.Errorf("core: cannot delete the document node")
	}
	switch n.kind {
	case KindAttribute:
		if n.owner != nil {
			db.RemoveAttribute(n.owner, n.name)
		}
		return nil
	case KindText:
		if n.owner != nil {
			for _, c := range n.owner.Colors() {
				l := n.owner.link(c)
				for i, ch := range l.children {
					if ch == n {
						l.children = append(l.children[:i], l.children[i+1:]...)
						break
					}
				}
			}
		}
		db.byID.Delete(uint64(n.id))
		db.invalidate()
		if n.owner != nil {
			db.logContent(n.owner)
		}
		return nil
	}
	var storedIn []Color
	if n.kind == KindElement {
		for _, c := range n.Colors() {
			if db.reachable(n, c) {
				storedIn = append(storedIn, c)
			}
		}
	}
	for _, c := range n.Colors() {
		l := n.link(c)
		if l.parent != nil {
			db.detach(n, c)
		}
		for _, ch := range l.children {
			if ch.kind == KindText {
				continue // owned; removed below
			}
			if cl := ch.link(c); cl != nil {
				cl.parent = nil
			}
		}
	}
	for _, a := range n.Attributes() {
		db.byID.Delete(uint64(a.id))
	}
	for _, t := range n.textChildren() {
		db.byID.Delete(uint64(t.id))
	}
	if n.extra != nil {
		n.extra.attrs = nil
	}
	db.byID.Delete(uint64(n.id))
	db.invalidate()
	for _, c := range storedIn {
		db.record(Change{Kind: ChangeDeleteSubtree, Elem: n.id, Color: c})
	}
	return nil
}

// DeleteSubtree deletes n and, recursively, every descendant of n in color c
// that has no remaining color after the edges in c are removed. Descendants
// that carry other colors survive with those colors.
func (db *Database) DeleteSubtree(n *Node, c Color) error {
	l := n.link(c)
	if l == nil {
		return fmt.Errorf("core: DeleteSubtree(%v, %q): %w", n, c, ErrColorIncompatible)
	}
	children := append([]*Node(nil), l.children...)
	for _, ch := range children {
		if ch.kind == KindText {
			continue
		}
		if err := db.DeleteSubtree(ch, c); err != nil {
			return err
		}
	}
	if len(n.Colors()) == 1 {
		return db.Delete(n)
	}
	return db.RemoveColor(n, c)
}

func (db *Database) checkColor(c Color) error {
	if c == "" {
		return fmt.Errorf("core: empty color: %w", ErrUnknownColor)
	}
	if !db.colors[c] {
		return fmt.Errorf("core: color %q not in database: %w", c, ErrUnknownColor)
	}
	return nil
}
