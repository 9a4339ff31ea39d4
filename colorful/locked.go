package colorful

import "colorfulxml/internal/core"

// This file shadows the embedded core.Database methods with locked
// wrappers, making the DB facade safe for concurrent use: readers take the
// shared lock, and every mutator is one durable commit scope (commit, in
// durable.go) run under the writer lock. Each mutator resolves its node
// arguments and makes one core call inside the scope's closure; nothing
// else in the package may call a core mutator (the commitscope analyzer
// holds it to that). The embedded methods themselves stay available via
// d.Database for single-goroutine code that wants to skip the locking, at
// its own risk.
//
// Mutations are NOT applied to the published query snapshot here — they
// land in the core database and its change log, and the next query (or a
// Refresh, or the commit that takes the log past its bound) publishes a
// fresh snapshot incrementally, under the same writer lock (serve.go).

// --- mutators -------------------------------------------------------------

// AddElement creates an element and appends it under parent in color c.
func (d *DB) AddElement(parent *Node, name string, c Color) (n *Node, err error) {
	err = d.commit(func() error {
		n, err = d.Database.AddElement(d.resolve(parent), name, c)
		return err
	})
	return n, err
}

// AddElementText is AddElement plus a text child.
func (d *DB) AddElementText(parent *Node, name string, c Color, text string) (n *Node, err error) {
	err = d.commit(func() error {
		n, err = d.Database.AddElementText(d.resolve(parent), name, c, text)
		return err
	})
	return n, err
}

// Adopt gives an existing node an additional parent in color c.
func (d *DB) Adopt(parent, n *Node, c Color) error {
	return d.commit(func() error {
		return d.Database.Adopt(d.resolve(parent), d.resolve(n), c)
	})
}

// SetText replaces an element's text content.
func (d *DB) SetText(elem *Node, value string) error {
	return d.commit(func() error {
		return d.Database.SetText(d.resolve(elem), value)
	})
}

// CopySubtree deep-copies a node's subtree in color c.
func (d *DB) CopySubtree(n *Node, c Color) (cp *Node, err error) {
	err = d.commit(func() error {
		cp, err = d.Database.CopySubtree(d.resolve(n), c)
		return err
	})
	return cp, err
}

// AddDatabaseColor registers a new color. The error is the commit's: a
// degraded or closed database refuses the registration.
func (d *DB) AddDatabaseColor(c Color) error {
	return d.commit(func() error {
		d.Database.AddDatabaseColor(c)
		return nil
	})
}

// NewElement creates a detached element in color c. Detached nodes are not
// materialized in the store (and so not made durable) until attached.
func (d *DB) NewElement(name string, c Color) (*Node, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Database.NewElement(name, c)
}

// MustElement is NewElement panicking on error.
func (d *DB) MustElement(name string, c Color) *Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Database.MustElement(name, c)
}

// NewComment creates a detached comment node.
func (d *DB) NewComment(value string, c Color) (*Node, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Database.NewComment(value, c)
}

// NewPI creates a detached processing-instruction node.
func (d *DB) NewPI(target, value string, c Color) (*Node, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Database.NewPI(target, value, c)
}

// SetAttribute sets (or replaces) an attribute on an element.
func (d *DB) SetAttribute(elem *Node, name, value string) (a *Node, err error) {
	err = d.commit(func() error {
		a, err = d.Database.SetAttribute(d.resolve(elem), name, value)
		return err
	})
	return a, err
}

// Rename changes a node's name.
func (d *DB) Rename(n *Node, name string) error {
	return d.commit(func() error {
		return d.Database.Rename(d.resolve(n), name)
	})
}

// RemoveAttribute removes an attribute if present. The error is the
// commit's: a degraded or closed database refuses the removal.
func (d *DB) RemoveAttribute(elem *Node, name string) error {
	return d.commit(func() error {
		d.Database.RemoveAttribute(d.resolve(elem), name)
		return nil
	})
}

// AppendText appends a text node to an element.
func (d *DB) AppendText(elem *Node, value string) (t *Node, err error) {
	err = d.commit(func() error {
		t, err = d.Database.AppendText(d.resolve(elem), value)
		return err
	})
	return t, err
}

// AddColor adds a node to color c (keeping its position rules).
func (d *DB) AddColor(n *Node, c Color) error {
	return d.commit(func() error {
		return d.Database.AddColor(d.resolve(n), c)
	})
}

// RemoveColor removes a node (and its subtree participation) from color c.
func (d *DB) RemoveColor(n *Node, c Color) error {
	return d.commit(func() error {
		return d.Database.RemoveColor(d.resolve(n), c)
	})
}

// Append attaches child as parent's last child in color c.
func (d *DB) Append(parent, child *Node, c Color) error {
	return d.commit(func() error {
		return d.Database.Append(d.resolve(parent), d.resolve(child), c)
	})
}

// InsertBefore attaches child before ref under parent in color c.
func (d *DB) InsertBefore(parent, child, ref *Node, c Color) error {
	return d.commit(func() error {
		return d.Database.InsertBefore(d.resolve(parent), d.resolve(child), d.resolve(ref), c)
	})
}

// Detach removes child from its parent in color c.
func (d *DB) Detach(child *Node, c Color) error {
	return d.commit(func() error {
		return d.Database.Detach(d.resolve(child), c)
	})
}

// Delete removes a node from the database entirely.
func (d *DB) Delete(n *Node) error {
	return d.commit(func() error {
		return d.Database.Delete(d.resolve(n))
	})
}

// DeleteSubtree deletes a node's subtree in color c.
func (d *DB) DeleteSubtree(n *Node, c Color) error {
	return d.commit(func() error {
		return d.Database.DeleteSubtree(d.resolve(n), c)
	})
}

// --- readers --------------------------------------------------------------

// NodeByID resolves a node by its stable identity.
func (d *DB) NodeByID(id NodeID) *Node {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Database.NodeByID(id)
}

// Colors lists the database's colors.
func (d *DB) Colors() []Color {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Database.Colors()
}

// HasColor reports whether a color is registered.
func (d *DB) HasColor(c Color) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Database.HasColor(c)
}

// NumNodes counts the database's nodes.
func (d *DB) NumNodes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Database.NumNodes()
}

// TreeNodes returns the nodes of one colored tree in document order.
func (d *DB) TreeNodes(c Color) []*Node {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Database.TreeNodes(c)
}

// LocalOrder returns a node's position in color c's document order.
func (d *DB) LocalOrder(n *Node, c Color) (int, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Database.LocalOrder(n, c)
}

// CompareLocal orders two nodes by color c's document order.
func (d *DB) CompareLocal(a, b *Node, c Color) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Database.CompareLocal(a, b, c)
}

// SortLocal sorts nodes in color c's document order.
func (d *DB) SortLocal(nodes []*Node, c Color) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.Database.SortLocal(nodes, c)
}

// Validate checks the MCT invariants.
func (d *DB) Validate() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Database.Validate()
}

// ComputeStats gathers the Table 1-style database statistics.
func (d *DB) ComputeStats() core.Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Database.ComputeStats()
}
